package route

import "sync/atomic"

// CountRelaxed makes every Incremental sweep add its relaxed positions to c
// until the returned function restores the previous counter.
func CountRelaxed(c *atomic.Int64) (restore func()) {
	prev := relaxed
	relaxed = c
	return func() { relaxed = prev }
}
