package sim

// packet is one network packet. Packets live in the simulator's slab
// (Simulator.pkts); flits name them by slab index.
type packet struct {
	id       int64
	created  int64 // cycle the NI generated it
	injected int64 // cycle the head flit entered the first router buffer
	src, dst int32
	flits    int32 // number of flits at the configured width
	ejected  int32 // flits delivered to the destination NI so far
	hops     int32 // router-to-router hops taken by the head flit
	measured bool  // created inside the measurement window
	yx       bool  // route Y-first (O1TURN's second class); false = XY
}

// flit is one flow-control unit: the slab index of its packet and its
// sequence number within the packet, whose high bit (tailBit) marks the
// packet's last flit. Eight bytes and no pointers, so the VC buffers and the
// rings holding flits are memory the garbage collector never scans.
type flit struct {
	pkt int32
	seq uint32
}

const tailBit = 1 << 31

func (f flit) isHead() bool { return f.seq&^tailBit == 0 }
func (f flit) isTail() bool { return f.seq&tailBit != 0 }

// bufEntry is a buffered flit plus the cycle it becomes eligible for switch
// allocation (modeling the router pipeline stages ahead of ST).
type bufEntry struct {
	f       flit
	readyAt int64
}

// vcFIFO is a fixed-capacity ring buffer of flits, one per virtual channel.
type vcFIFO struct {
	buf   []bufEntry
	head  int
	count int
}

func (q *vcFIFO) push(e bufEntry) {
	if q.count == len(q.buf) {
		panic("sim: VC buffer overflow — credit flow control violated")
	}
	i := q.head + q.count
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = e
	q.count++
}

func (q *vcFIFO) front() *bufEntry {
	if q.count == 0 {
		return nil
	}
	return &q.buf[q.head]
}

func (q *vcFIFO) pop() bufEntry {
	if q.count == 0 {
		panic("sim: pop from empty VC buffer")
	}
	e := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.count--
	return e
}

func (q *vcFIFO) len() int { return q.count }
func (q *vcFIFO) cap() int { return len(q.buf) }
