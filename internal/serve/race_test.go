//go:build race

package serve

// raceEnabled reports a -race build, whose runtime drops a random share of
// sync.Pool puts, so pooled buffers are sometimes allocated afresh.
const raceEnabled = true
