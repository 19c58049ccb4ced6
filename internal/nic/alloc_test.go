package nic

import (
	"testing"

	"livelock/internal/netstack"
	"livelock/internal/sim"
)

// idReceiver records the IDs of delivered frames, in order, then
// releases them.
type idReceiver struct{ ids []uint64 }

func (r *idReceiver) DeliverFrame(p *netstack.Packet) {
	r.ids = append(r.ids, p.ID)
	p.Release()
}

// The transmit ring is on every forwarded frame's path: StartTx, the
// completion event, and the reclaim must not allocate, including when
// the ring's head wraps around.
func TestAllocsTxRingWraparound(t *testing.T) {
	eng := sim.NewEngine()
	var sink CountingReceiver
	n := New(eng, "out0", netstack.MAC{}, Config{RxRing: 4, TxRing: 3}, NewWire(eng, &sink, EthernetBitRate, 0))
	n.SetTxInterrupt(func() {})
	pool := netstack.NewPool(4, netstack.EthMaxFrame)
	// Two frames per cycle on a three-slot ring: the head lands on
	// every slot in turn.
	cycle := func() {
		for i := 0; i < 2; i++ {
			if !n.StartTx(pool.Get(netstack.EthMinFrame)) {
				t.Fatal("StartTx failed with free descriptors")
			}
		}
		eng.RunFor(sim.Millisecond)
		for n.ReclaimTx() {
		}
		n.TxIntrDone()
	}
	if allocs := testing.AllocsPerRun(300, cycle); allocs != 0 {
		t.Fatalf("StartTx → txDone → ReclaimTx allocates %v objects per cycle, want 0", allocs)
	}
	if sink.Count == 0 || pool.Available() != pool.Total() {
		t.Fatalf("delivered %d, pool %d/%d free", sink.Count, pool.Available(), pool.Total())
	}
}

// TestTxRingAccountingAcrossWraparound checks the descriptor counts
// and FIFO order of the circular transmit queue as its head wraps, and
// that Drain releases exactly the queued frames from the middle of the
// ring.
func TestTxRingAccountingAcrossWraparound(t *testing.T) {
	eng := sim.NewEngine()
	rec := &idReceiver{}
	const ring = 3
	n := New(eng, "out0", netstack.MAC{}, Config{RxRing: 4, TxRing: ring}, NewWire(eng, rec, EthernetBitRate, 0))
	pool := netstack.NewPool(8, netstack.EthMaxFrame)
	next := uint64(1)
	send := func() bool {
		p := pool.Get(netstack.EthMinFrame)
		p.ID = next
		if !n.StartTx(p) {
			p.Release()
			return false
		}
		next++
		return true
	}
	for round := 0; round < 2*ring+1; round++ {
		k := 1 + round%ring
		for i := 0; i < k; i++ {
			if !send() {
				t.Fatalf("round %d: StartTx %d of %d failed", round, i+1, k)
			}
		}
		// One frame goes straight to the wire; the rest wait queued.
		if got := n.TxQueuedLen(); got != k-1 {
			t.Fatalf("round %d: TxQueuedLen = %d, want %d", round, got, k-1)
		}
		if got := n.TxDescriptorsFree(); got != ring-k {
			t.Fatalf("round %d: TxDescriptorsFree = %d, want %d", round, got, ring-k)
		}
		if k == ring && send() {
			t.Fatalf("round %d: StartTx succeeded on a full ring", round)
		}
		eng.RunFor(sim.Millisecond)
		if n.TxQueuedLen() != 0 || n.TxCompletedLen() != k || n.TxDescriptorsFree() != ring-k {
			t.Fatalf("round %d: after transmit queued=%d completed=%d free=%d",
				round, n.TxQueuedLen(), n.TxCompletedLen(), n.TxDescriptorsFree())
		}
		for n.ReclaimTx() {
		}
	}
	for i, id := range rec.ids {
		if id != uint64(i+1) {
			t.Fatalf("frame %d on the wire has ID %d: the ring reordered", i, id)
		}
	}

	// Fill the ring with the head mid-way, then drain before the wire
	// finishes: the in-flight frame belongs to the wire, the two queued
	// ones come back to the pool.
	for i := 0; i < ring; i++ {
		if !send() {
			t.Fatal("StartTx failed filling the ring")
		}
	}
	if got := n.Drain(); got != ring-1 {
		t.Fatalf("Drain = %d, want %d", got, ring-1)
	}
	if n.TxQueuedLen() != 0 || n.TxDescriptorsFree() != ring-1 {
		t.Fatalf("after Drain: queued=%d free=%d", n.TxQueuedLen(), n.TxDescriptorsFree())
	}
	if got, want := pool.Available(), pool.Total()-1; got != want {
		t.Fatalf("pool has %d free after Drain, want %d (only the in-flight frame out)", got, want)
	}
	eng.RunFor(sim.Millisecond)
	if n.TxCompletedLen() != 1 {
		t.Fatalf("TxCompletedLen = %d after the in-flight frame finished, want 1", n.TxCompletedLen())
	}
	if pool.Available() != pool.Total() {
		t.Fatalf("pool has %d of %d free after the wire delivered", pool.Available(), pool.Total())
	}
}
