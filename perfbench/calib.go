package main

// The calibrator gauges how fast the host runs at the moment. On a
// shared virtual machine other tenants' load moves this VM's speed by
// up to a factor of two over minutes, and the process CPU clock counts
// the slow stretches in full (cpuNow). Timed passes therefore run one
// calibration chunk after every trial and report the trial's time as a
// multiple of the chunk's (endToEnd): a slow stretch lengthens both.
//
// A chunk is fixed work of its own, not the simulator's code, so that a
// change to the simulator leaves it alone. Its first part is a
// discrete-event packet workload that runs from the caches: an event
// heap with a two-way arrive/serve schedule, a bounded receive ring with
// tail drop, a free list of packet buffers, a flow table map and a
// checksum over every payload. Its second part chases pointers through a
// random cycle over 32 MiB, so that each step waits on memory. A slow
// stretch slows the two parts by different factors, and the simulator
// lies between them: on this benchmark's host, with the memory part
// about a third of the chunk, the calibrated times of all three
// workloads varied least.
//
// A chunk allocates nothing once its tables are grown, keeps its state
// in fixed arrays so that it writes no pointer, and finds the chase
// table outside the Go heap, so the simulator's heap does not slow a
// chunk, nor the chunk the simulator's collections. A version that kept
// its state in slices ran 27% slower straight after a trial, with the
// trial's collection still marking and its write barrier on, than after
// a full collection; this one runs within 4% of it. Timed passes still
// run it after the trial's closing collection (runPass).

import (
	"encoding/binary"
	"sync"
	"syscall"
	"time"
)

const (
	calPackets = 4000    // packets one chunk offers
	calRing    = 64      // receive ring slots
	calFlows   = 1 << 15 // flow identifiers drawn from
	calPayload = 64      // payload bytes per packet
	calSlots   = 8 << 20 // chase table entries, 4 bytes each
	calSteps   = 2000    // chase steps one chunk takes

	// calRefNs is the reference chunk time: a chunk's CPU time on the
	// host this benchmark was tuned on. Calibrated times read as host
	// time on a host of that speed.
	calRefNs = 1.8e6
)

const (
	calArrive = iota
	calServe
)

type calEvent struct {
	at, seq uint64
	kind    uint8
}

type calPacket struct {
	flow, seq uint32
	data      [calPayload]byte
}

type calFlow struct {
	pkts, bytes uint64
	sum         uint32
}

// calibrator holds a chunk's state in fixed arrays: the hot loop writes
// no pointer, so it pays no write barrier while a collection marks.
type calibrator struct {
	heap     [4]calEvent // at most one arrival and one service pending
	nheap    int
	pkts     [calRing + 2]calPacket
	free     [calRing + 2]int32
	nfree    int
	ring     [calRing]int32
	head, n  int
	flows    map[uint32]calFlow
	rng      uint64
	now, seq uint64
	sent     int
	serving  bool
	drops    uint64
	check    uint64 // folded from the packet part's outcome; the same for every chunk
	chase    []byte // calSlots little-endian uint32 slot indices forming one cycle
	pos      uint32 // chase position, carried from chunk to chunk
}

var (
	chaseOnce  sync.Once
	chaseTable []byte
)

// chaseCycle returns the chase table, built on first use: Sattolo's
// shuffle makes slot i hold the next slot of a single random cycle
// through all of them, so that no short loop settles in the caches.
func chaseCycle() []byte {
	chaseOnce.Do(func() {
		b, err := syscall.Mmap(-1, 0, 4*calSlots, syscall.PROT_READ|syscall.PROT_WRITE,
			syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic(err)
		}
		for i := 0; i < calSlots; i++ {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(i))
		}
		x := uint64(0x9E3779B97F4A7C15)
		for i := calSlots - 1; i > 0; i-- {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := int(x % uint64(i))
			vi := binary.LittleEndian.Uint32(b[4*i:])
			binary.LittleEndian.PutUint32(b[4*i:], binary.LittleEndian.Uint32(b[4*j:]))
			binary.LittleEndian.PutUint32(b[4*j:], vi)
		}
		chaseTable = b
	})
	return chaseTable
}

func newCalibrator() *calibrator {
	c := &calibrator{
		flows: make(map[uint32]calFlow, calPackets),
		chase: chaseCycle(),
	}
	c.chunk() // grows the map to its working size
	return c
}

func (c *calibrator) rand() uint64 {
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return c.rng
}

func (c *calEvent) before(o *calEvent) bool {
	return c.at < o.at || (c.at == o.at && c.seq < o.seq)
}

func (c *calibrator) at(t uint64, kind uint8) {
	c.seq++
	ev := calEvent{at: t, seq: c.seq, kind: kind}
	h := &c.heap
	i := c.nheap
	c.nheap++
	for i > 0 {
		p := (i - 1) / 2
		if h[p].before(&ev) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

func (c *calibrator) pop() calEvent {
	h := &c.heap
	top := h[0]
	c.nheap--
	n := c.nheap
	last := h[n]
	i := 0
	for {
		k := 2*i + 1
		if k >= n {
			break
		}
		if k+1 < n && h[k+1].before(&h[k]) {
			k++
		}
		if last.before(&h[k]) {
			break
		}
		h[i] = h[k]
		i = k
	}
	if n > 0 {
		h[i] = last
	}
	return top
}

func (c *calibrator) arrive() {
	c.nfree--
	id := c.free[c.nfree]
	p := &c.pkts[id]
	p.flow = uint32(c.rand() % calFlows)
	p.seq = uint32(c.sent)
	for i := range p.data {
		p.data[i] = byte(p.seq + uint32(i))
	}
	if c.n == calRing {
		c.drops++
		c.free[c.nfree] = id
		c.nfree++
	} else {
		c.ring[(c.head+c.n)%calRing] = id
		c.n++
		if !c.serving {
			c.serving = true
			c.at(c.now+5, calServe)
		}
	}
	c.sent++
	if c.sent < calPackets {
		c.at(c.now+80+c.rand()%40, calArrive)
	}
}

func (c *calibrator) serve() {
	if c.n == 0 {
		c.serving = false
		return
	}
	id := c.ring[c.head]
	c.head = (c.head + 1) % calRing
	c.n--
	p := &c.pkts[id]
	var s uint32
	for _, b := range p.data {
		s = s*31 + uint32(b)
	}
	f := c.flows[p.flow]
	f.pkts++
	f.bytes += calPayload
	f.sum ^= s
	c.flows[p.flow] = f
	c.free[c.nfree] = id
	c.nfree++
	c.at(c.now+90+c.rand()%40, calServe)
}

// chunk runs one calibration chunk from a fresh state and returns its
// host CPU time in ns.
func (c *calibrator) chunk() int64 {
	start := cpuNow()
	c.nheap, c.nfree = 0, len(c.pkts)
	for i := range c.free {
		c.free[i] = int32(i)
	}
	clear(c.flows)
	c.head, c.n, c.sent, c.serving, c.drops = 0, 0, 0, false, 0
	c.rng, c.now, c.seq = 88172645463325252, 0, 0
	c.at(0, calArrive)
	for c.nheap > 0 {
		ev := c.pop()
		c.now = ev.at
		if ev.kind == calArrive {
			c.arrive()
		} else {
			c.serve()
		}
	}
	c.check = c.drops<<32 ^ uint64(len(c.flows))<<8 ^ c.now
	p := c.pos
	for i := 0; i < calSteps; i++ {
		p = binary.LittleEndian.Uint32(c.chase[4*p:])
	}
	c.pos = p
	return (cpuNow() - start).Nanoseconds()
}

// chunkMs is the median CPU time of n chunks, in ms.
func (c *calibrator) chunkMs(n int) float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(c.chunk())
	}
	return median(v) / float64(time.Millisecond)
}
