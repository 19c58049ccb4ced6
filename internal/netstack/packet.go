// Package netstack implements the protocol substrate the router runs on:
// Ethernet, IPv4 and UDP header encoding/decoding on real bytes, Internet
// checksums (RFC 1071) with incremental update (RFC 1624), an ARP table,
// and a longest-prefix-match routing table.
//
// The simulation charges CPU cost for this work via calibrated constants,
// but the work itself is genuine: headers are parsed from and written to
// wire-format byte slices, TTLs are decremented, and checksums are
// maintained, so the packet contents observed at the sink are exactly
// what a real router would emit.
package netstack

import (
	"fmt"

	"livelock/internal/prov"
	"livelock/internal/sim"
)

// Packet is a frame traversing the simulated network, carrying its
// wire-format bytes plus simulation metadata used for measurement.
type Packet struct {
	// Data is the full Ethernet frame in wire format.
	Data []byte

	// ID is a unique, monotonically increasing identifier assigned by
	// the generator, used for tracing and conservation checks.
	ID uint64

	// Born is the instant the packet was handed to the input wire.
	Born sim.Time

	// EnqueuedNIC is the instant the packet entered the receiving NIC's
	// ring (start of host-visible latency).
	EnqueuedNIC sim.Time

	// Prov names this packet's provenance record in the cycle-attribution
	// profiler. The zero handle means "untracked" (profiler disabled, or
	// a router-originated frame) and makes every profiler op a no-op.
	Prov prov.Handle

	pool *Pool
	// inPool is set while the buffer sits free in its pool, so a second
	// Release panics instead of letting two later packets share bytes.
	inPool bool
}

// Len returns the frame length in bytes.
func (p *Packet) Len() int { return len(p.Data) }

// Release returns the packet's buffer to its pool, if it came from one.
// After Release the packet must not be used.
func (p *Packet) Release() {
	if p.pool != nil {
		p.pool.put(p)
	}
}

// String summarizes the packet for traces.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d len=%d", p.ID, len(p.Data))
}

// Pool is a fixed-capacity packet buffer allocator, the moral equivalent
// of the 4.2BSD mbuf pool: when it is exhausted, allocation fails and the
// caller must drop. All buffers have the same capacity.
//
// Buffers are created lazily, in slabs of slabSize packets sharing one
// backing byte array, the first time a Get finds no released buffer to
// reuse. A trial that never has more than a few dozen packets in flight
// therefore allocates one slab rather than the whole pool. The lazy
// pool is observably the eager one: released buffers are reused LIFO
// (most recently released first), a buffer never used before is handed
// out zeroed, Get fails at exactly total outstanding buffers, and
// Available counts never-created buffers as free.
type Pool struct {
	// free holds released buffers, most recently released last. Its
	// capacity always covers every created buffer, so Release never
	// allocates.
	free []*Packet
	// fresh is the unused tail of the newest slab, handed out front to
	// back once free is empty.
	fresh   []Packet
	bufSize int
	total   int
	created int // buffers handed out at least once
	// Fails counts allocation failures caused by buffer exhaustion —
	// the pool genuinely had no free buffer, the paper's mbuf-starvation
	// drop.
	Fails uint64
	// Oversize counts requests larger than the pool's buffer size. That
	// is a caller bug, not exhaustion, and is tracked separately so
	// conservation accounting does not conflate the two failure modes.
	Oversize uint64
}

// slabSize is the number of buffers created together when the pool
// grows: large enough that a steady-state trial grows a handful of
// times, small enough that a light trial touches one slab.
const slabSize = 64

// NewPool returns a pool of n buffers of bufSize bytes each. n <= 0 or
// bufSize <= 0 panics. No buffer memory is allocated until Get needs it.
func NewPool(n, bufSize int) *Pool {
	if n <= 0 || bufSize <= 0 {
		panic("netstack: invalid pool dimensions")
	}
	return &Pool{bufSize: bufSize, total: n}
}

// Get allocates a packet buffer sized to length n. It returns nil if the
// pool is exhausted or n exceeds the pool's buffer size.
func (p *Pool) Get(n int) *Packet {
	if n > p.bufSize {
		p.Oversize++
		return nil
	}
	var pkt *Packet
	switch {
	case len(p.free) > 0:
		pkt = p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
	case p.created < p.total:
		if len(p.fresh) == 0 {
			p.grow()
		}
		pkt = &p.fresh[0]
		p.fresh = p.fresh[1:]
		p.created++
	default:
		p.Fails++
		return nil
	}
	pkt.inPool = false
	pkt.Data = pkt.Data[:n]
	return pkt
}

// grow creates the next slab: up to slabSize packets whose buffers are
// disjoint, capacity-capped windows of one zeroed byte array.
func (p *Pool) grow() {
	k := min(slabSize, p.total-p.created)
	slab := make([]Packet, k)
	buf := make([]byte, k*p.bufSize)
	for i := range slab {
		lo := i * p.bufSize
		slab[i] = Packet{Data: buf[lo : lo : lo+p.bufSize], pool: p, inPool: true}
	}
	p.fresh = slab
	if need := p.created + k; cap(p.free) < need {
		free := make([]*Packet, len(p.free), need)
		copy(free, p.free)
		p.free = free
	}
}

func (p *Pool) put(pkt *Packet) {
	if pkt.inPool {
		panic("netstack: double release of a pool buffer")
	}
	pkt.inPool = true
	pkt.Data = pkt.Data[:0]
	pkt.ID = 0
	pkt.Prov = prov.Handle{}
	p.free = append(p.free, pkt)
}

// Available returns the number of free buffers, counting those not yet
// created.
func (p *Pool) Available() int { return len(p.free) + p.total - p.created }

// Total returns the pool capacity in buffers.
func (p *Pool) Total() int { return p.total }
