package sim

// This file holds the allocation-discipline queue primitive of the
// active-set engine: power-of-two ring buffers whose backing arrays are
// reused across a whole run (replacing the grow-forever append/head-index
// queues).

const (
	// ringInitCap is the capacity a ring starts with on first use and returns
	// to after a cap-bounded reset. Sixteen slots cover every queue's steady
	// state at paper-typical loads without growth.
	ringInitCap = 16
	// ringShrinkCap bounds retained capacity: a ring that drains empty with a
	// larger backing array (a burst near saturation) is reset so the burst
	// doesn't pin memory for the rest of the run.
	ringShrinkCap = 2048
)

// The two ring types below are one growable circular FIFO with a
// power-of-two backing array, stamped out per element type. The zero value
// is ready to use; the first push allocates ringInitCap slots. Elements hold
// no pointers, so a popped slot is left as it is. They are deliberately
// concrete copies of one another rather than a generic ring[T]: the pushes
// and pops run hundreds of times per simulated cycle, and Go's gcshape
// generics compile them as out-of-line dictionary calls where these
// monomorphic methods inline away.

type delivRing struct {
	buf  []delivery
	head int
	n    int
}

func (r *delivRing) len() int { return r.n }

func (r *delivRing) push(v delivery) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

func (r *delivRing) grow() {
	if len(r.buf) == 0 {
		r.buf = make([]delivery, ringInitCap)
		return
	}
	nb := make([]delivery, len(r.buf)*2)
	m := copy(nb, r.buf[r.head:])
	copy(nb[m:], r.buf[:r.head])
	r.buf, r.head = nb, 0
}

// at returns the i-th queued element in FIFO order without popping it; only
// valid for i < len(). Used by the invariant auditor to count in-flight
// entries without disturbing the queue.
func (r *delivRing) at(i int) *delivery { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *delivRing) popFront() delivery {
	v := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// shrinkIfDrained applies the cap-bounded reset: an empty ring whose backing
// array grew past ringShrinkCap drops it and starts over at ringInitCap.
func (r *delivRing) shrinkIfDrained() {
	if r.n == 0 && len(r.buf) > ringShrinkCap {
		r.buf = make([]delivery, ringInitCap)
		r.head = 0
	}
}

type flitRing struct {
	buf  []flit
	head int
	n    int
}

func (r *flitRing) len() int { return r.n }

func (r *flitRing) push(v flit) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

func (r *flitRing) grow() {
	if len(r.buf) == 0 {
		r.buf = make([]flit, ringInitCap)
		return
	}
	nb := make([]flit, len(r.buf)*2)
	m := copy(nb, r.buf[r.head:])
	copy(nb[m:], r.buf[:r.head])
	r.buf, r.head = nb, 0
}

func (r *flitRing) front() *flit { return &r.buf[r.head] }

func (r *flitRing) popFront() flit {
	v := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

func (r *flitRing) shrinkIfDrained() {
	if r.n == 0 && len(r.buf) > ringShrinkCap {
		r.buf = make([]flit, ringInitCap)
		r.head = 0
	}
}
