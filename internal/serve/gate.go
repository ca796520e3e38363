package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"explink/internal/runctl"
)

var (
	// ErrDraining rejects work admitted after BeginDrain: the daemon is
	// shutting down and stops accepting, per the drain contract.
	ErrDraining = errors.New("server draining")
	// ErrOverloaded rejects work when the admission queue is full: every
	// worker slot is busy and the bounded wait line is at capacity.
	ErrOverloaded = errors.New("server overloaded")
	// ErrRateLimited rejects a client that exceeded its request budget.
	ErrRateLimited = errors.New("client rate limited")
)

// gate is the bounded admission controller in front of every unit of daemon
// work: at most maxInflight requests run at once, at most maxQueue more wait
// for a slot, and everything beyond that is rejected immediately with
// ErrOverloaded so overload degrades into fast 503s instead of an unbounded
// goroutine pile-up. BeginDrain flips the gate closed: waiting and future
// acquisitions fail with ErrDraining while in-flight work keeps its slots
// until release.
type gate struct {
	sem     chan struct{}
	drainCh chan struct{}
	// release gives a slot back; built once so admitting allocates nothing.
	release func()

	mu       sync.Mutex
	waiting  int
	maxQueue int
	drained  bool
}

func newGate(maxInflight, maxQueue int) *gate {
	if maxInflight < 1 {
		maxInflight = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	g := &gate{
		sem:      make(chan struct{}, maxInflight),
		drainCh:  make(chan struct{}),
		maxQueue: maxQueue,
	}
	g.release = func() { <-g.sem }
	return g
}

// acquire admits one unit of work, blocking in the bounded queue when every
// slot is busy. The caller must invoke the returned release exactly once.
// Rejections: ErrDraining after BeginDrain, ErrOverloaded when the queue is
// full, and a runctl.ErrCancelled wrap when ctx dies while queued.
func (g *gate) acquire(ctx context.Context) (release func(), err error) {
	select {
	case <-g.drainCh:
		return nil, ErrDraining
	default:
	}
	// Fast path: a free slot, no queueing.
	select {
	case g.sem <- struct{}{}:
		return g.admit()
	default:
	}
	g.mu.Lock()
	if g.waiting >= g.maxQueue {
		g.mu.Unlock()
		return nil, ErrOverloaded
	}
	g.waiting++
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		g.waiting--
		g.mu.Unlock()
	}()
	select {
	case g.sem <- struct{}{}:
		return g.admit()
	case <-g.drainCh:
		return nil, ErrDraining
	case <-ctx.Done():
		return nil, runctl.Cancelled(ctx)
	}
}

// admit finalizes a successful semaphore acquisition. When the drain channel
// closed concurrently with the acquire, the select above picks an arm at
// random — a queued waiter could win the slot against an already-begun drain
// and be admitted in violation of the drain contract. Re-checking here makes
// the drain decisive: the slot is given back and the caller is rejected.
func (g *gate) admit() (func(), error) {
	select {
	case <-g.drainCh:
		<-g.sem
		return nil, ErrDraining
	default:
		return g.release, nil
	}
}

// beginDrain closes the gate; idempotent.
func (g *gate) beginDrain() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.drained {
		g.drained = true
		close(g.drainCh)
	}
}

// draining reports whether beginDrain has been called.
func (g *gate) draining() bool {
	select {
	case <-g.drainCh:
		return true
	default:
		return false
	}
}

// queued reports how many acquirers are waiting for a slot.
func (g *gate) queued() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.waiting
}

// inflight reports how many slots are held.
func (g *gate) inflight() int { return len(g.sem) }

// limiter is a per-client token-bucket rate limiter: each client key gets
// `rate` requests per second with a burst allowance, lazily instantiated.
// The table is hard-capped at limiterMaxClients: inserting a new key at the
// cap first tries a full stale-bucket scan (at most once per
// limiterScanEvery, so a spoofed-client flood cannot buy an O(n) walk per
// request), then falls back to evicting the least-recently-seen bucket of a
// small random sample — the map never grows past the cap.
type limiter struct {
	rate  float64 // tokens per second; <= 0 disables the limiter
	burst float64

	mu       sync.Mutex
	buckets  map[string]*bucket
	lastScan time.Time        // last full evictStale walk
	now      func() time.Time // injectable clock for tests
}

type bucket struct {
	tokens float64
	last   time.Time
}

const (
	limiterMaxClients = 4096
	// limiterScanEvery spaces full O(n) stale scans; between scans the cap is
	// held by O(1) sampled eviction.
	limiterScanEvery = time.Second
	// limiterEvictSample is how many map entries the fallback eviction
	// inspects; Go's randomized map iteration order makes this an approximate
	// LRU draw (the Redis approach) at constant cost.
	limiterEvictSample = 8
)

func newLimiter(ratePerSec float64, burst int) *limiter {
	if burst < 1 {
		burst = 1
	}
	return &limiter{
		rate:    ratePerSec,
		burst:   float64(burst),
		buckets: make(map[string]*bucket),
		now:     time.Now,
	}
}

// enabled reports whether the limiter throttles at all (rate > 0).
func (l *limiter) enabled() bool { return l != nil && l.rate > 0 }

// allow consumes one token from key's bucket, reporting whether the request
// is within budget. A disabled limiter (rate <= 0) always allows.
func (l *limiter) allow(key string) bool {
	if !l.enabled() {
		return true
	}
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[key]
	if !ok {
		if len(l.buckets) >= limiterMaxClients {
			if now.Sub(l.lastScan) >= limiterScanEvery {
				l.evictStale(now)
				l.lastScan = now
			}
			// The scan may find nothing idle (a flood of fresh spoofed keys);
			// the cap is enforced regardless by evicting an approximately
			// least-recently-seen bucket.
			for len(l.buckets) >= limiterMaxClients {
				l.evictOldestSampled()
			}
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * l.rate
	if b.tokens > l.burst {
		b.tokens = l.burst
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// evictStale drops buckets that have been idle long enough to be full again
// (they carry no throttling state worth keeping). Called with l.mu held.
func (l *limiter) evictStale(now time.Time) {
	idle := time.Duration(l.burst/l.rate*float64(time.Second)) + time.Second
	for k, b := range l.buckets {
		if now.Sub(b.last) > idle {
			delete(l.buckets, k)
		}
	}
}

// evictOldestSampled deletes the bucket with the oldest last-seen time among
// a limiterEvictSample-sized draw of the table (the whole table when
// smaller). Called with l.mu held on a non-empty table.
func (l *limiter) evictOldestSampled() {
	var (
		victim string
		oldest time.Time
		seen   int
	)
	for k, b := range l.buckets {
		if seen == 0 || b.last.Before(oldest) {
			victim, oldest = k, b.last
		}
		if seen++; seen >= limiterEvictSample {
			break
		}
	}
	if seen > 0 {
		delete(l.buckets, victim)
	}
}
