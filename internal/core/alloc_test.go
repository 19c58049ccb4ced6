package core

import (
	"testing"

	"livelock/internal/cpu"
	"livelock/internal/sim"
)

// methodDevice is a driver in the allocation-free shape: its steps and
// commits are method values bound once, and the in-flight unit lives in
// the device.
type methodDevice struct {
	rxWork, txWork int
	inFlight       int
	done           int
	commitFn       func()
}

func (d *methodDevice) rx() (sim.Duration, func(), bool) {
	if d.rxWork == 0 {
		return 0, nil, false
	}
	d.rxWork--
	d.inFlight = 1
	return 3 * us, d.commitFn, true
}

func (d *methodDevice) tx() (sim.Duration, func(), bool) {
	if d.txWork == 0 {
		return 0, nil, false
	}
	d.txWork--
	d.inFlight = 1
	return 2 * us, d.commitFn, true
}

func (d *methodDevice) commit() {
	d.done += d.inFlight
	d.inFlight = 0
}

// Every packet the polled kernel handles is one poller step, so the
// step, its continuation and the commit hand-off must not allocate —
// with and without the SMP device lock.
func TestAllocsPollerStep(t *testing.T) {
	for _, locked := range []bool{false, true} {
		eng := sim.NewEngine()
		p := NewPoller(eng, cpu.New(eng), 10, PollerConfig{Quota: 4, WakeupCost: us, RoundCost: us})
		d := &methodDevice{}
		d.commitFn = d.commit
		dev := &Device{Name: "d0", Rx: d.rx, Tx: d.tx}
		if locked {
			dev.Lock, dev.LockedTail = cpu.NewFairLock("net"), us
		}
		p.Register(dev)
		const perRun = 50
		run := func() {
			d.rxWork, d.txWork = perRun, perRun/2
			p.Schedule()
			eng.RunFor(sim.Second)
		}
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Fatalf("locked=%v: %v allocations per %d steps, want 0", locked, allocs, perRun*3/2)
		}
		if want := 101 * (perRun + perRun/2); d.done != want {
			t.Fatalf("locked=%v: committed %d units, want %d", locked, d.done, want)
		}
	}
}
