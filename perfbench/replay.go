package main

import (
	"fmt"
	"sort"

	"livelock/internal/core"
	"livelock/internal/cpu"
	"livelock/internal/kernel"
	lkmetrics "livelock/internal/metrics"
	"livelock/internal/netstack"
	"livelock/internal/nic"
	"livelock/internal/prov"
	"livelock/internal/queue"
	"livelock/internal/sim"
	"livelock/internal/workload"
)

// A replay times one layer's public entry point in isolation, on a
// private engine, and checks that every timed call did its work: a
// replay that timed a failing path would under-report the layer.
//
// NsPerOp is the host CPU time of one call including the lower layers it
// drives (events it schedules, dispatches it causes); events and
// dispatches per op let the rollup subtract those and charge each layer
// only its own time.
type replay struct {
	Name        string
	NsPerOp     float64
	EventsPerOp float64
	DispPerOp   float64
	AllocsPerOp float64
	Ops         int
	Err         error
}

// replayBatches timed batches are taken per replay and the median
// batch's ns/op is reported; one untimed batch runs first.
const replayBatches = 7

func timeReplay(name string, n int, run func(n int) error) replay {
	rp := replay{Name: name}
	if err := run(n / 4); err != nil {
		rp.Err = fmt.Errorf("replay %s: %w", name, err)
		return rp
	}
	per := make([]float64, 0, replayBatches)
	for b := 0; b < replayBatches; b++ {
		start := cpuNow()
		if err := run(n); err != nil {
			rp.Err = fmt.Errorf("replay %s: %w", name, err)
			return rp
		}
		per = append(per, float64((cpuNow()-start).Nanoseconds())/float64(n))
	}
	sort.Float64s(per)
	rp.NsPerOp = per[len(per)/2]
	rp.Ops = n * replayBatches
	return rp
}

// allocsPerOp counts heap objects one batch of n calls allocates.
func allocsPerOp(n int, run func(n int) error) float64 {
	before, _ := readAllocs()
	if err := run(n); err != nil {
		return -1
	}
	after, _ := readAllocs()
	return float64(after-before) / float64(n)
}

func noopEvent(_, _ any) {}

// replaySim times Engine.AfterCall plus the Step that fires it, with
// depth other events pending — the workload's mean queue depth.
func replaySim(depth int) replay {
	eng := sim.NewEngine()
	for i := 0; i < depth; i++ {
		eng.AtCall(sim.Time(1<<60)+sim.Time(i), noopEvent, nil, nil)
	}
	x := uint32(1)
	return timeReplay("sim", 200000, func(n int) error {
		before := eng.Fired()
		for i := 0; i < n; i++ {
			x = x*1664525 + 1013904223
			eng.AfterCall(sim.Duration(1+x>>22), noopEvent, nil, nil)
			eng.Step()
		}
		if got := eng.Fired() - before; got != uint64(n) {
			return fmt.Errorf("fired %d events, want %d", got, n)
		}
		return nil
	})
}

// engineCounts runs fn and reports the events fired and dispatches made.
func engineCounts(eng *sim.Engine, sys *cpu.System, fn func() error) (events, disp uint64, err error) {
	e0 := eng.Fired()
	var d0, d1 uint64
	sys.Visit(func(c *cpu.CPU) { d0 += c.Dispatches() })
	err = fn()
	sys.Visit(func(c *cpu.CPU) { d1 += c.Dispatches() })
	return eng.Fired() - e0, d1 - d0, err
}

// replayDispatch times Task.Post on a fresh one-core cpu.System: the
// post, the dispatch and the completion event that runs the item.
func replayDispatch() replay {
	eng := sim.NewEngine()
	sys := cpu.NewSystem(eng, 1)
	task := sys.CPU(0).NewTask("replay", cpu.IPLThread, 0, cpu.ClassKernel)
	done := 0
	fn := func() { done++ }
	run := func(n int) error {
		done = 0
		for i := 0; i < n; i++ {
			task.Post(sim.Microsecond, fn)
			for eng.Step() {
			}
		}
		if done != n {
			return fmt.Errorf("ran %d of %d posted items", done, n)
		}
		return nil
	}
	rp := timeReplay("cpu.dispatch", 100000, run)
	events, disp, err := engineCounts(eng, sys, func() error { return run(1000) })
	if rp.Err == nil && err != nil {
		rp.Err = err
	}
	if rp.Err == nil && disp != 1000 {
		rp.Err = fmt.Errorf("replay cpu.dispatch: %d dispatches for 1000 posts", disp)
	}
	rp.EventsPerOp, rp.DispPerOp = float64(events)/1000, float64(disp)/1000
	return rp
}

// replayLocked times Task.PostLocked with two cores contending for one
// FairLock: per op, one critical section including its spin.
func replayLocked() replay {
	eng := sim.NewEngine()
	sys := cpu.NewSystem(eng, 2)
	lock := cpu.NewFairLock("replay")
	t0 := sys.CPU(0).NewTask("replay0", cpu.IPLThread, 0, cpu.ClassKernel)
	t1 := sys.CPU(1).NewTask("replay1", cpu.IPLThread, 0, cpu.ClassKernel)
	done := 0
	fn := func() { done++ }
	run := func(n int) error {
		done = 0
		c0 := lock.Contended()
		for i := 0; i < n; i += 2 {
			t0.PostLocked(lock, sim.Microsecond, prov.CenterIPInput, fn)
			t1.PostLocked(lock, sim.Microsecond, prov.CenterIPInput, fn)
			for eng.Step() {
			}
		}
		if want := (n + 1) / 2 * 2; done != want {
			return fmt.Errorf("ran %d of %d locked items", done, want)
		}
		if lock.Contended() == c0 {
			return fmt.Errorf("the two cores never contended")
		}
		return nil
	}
	rp := timeReplay("cpu.locked", 100000, run)
	events, disp, err := engineCounts(eng, sys, func() error { return run(1000) })
	if rp.Err == nil && err != nil {
		rp.Err = err
	}
	rp.EventsPerOp, rp.DispPerOp = float64(events)/1000, float64(disp)/1000
	return rp
}

// replayQueue times one Enqueue or Dequeue (ns per operation, the pair
// halved), checking the dequeued packet is the one enqueued.
func replayQueue() replay {
	q := queue.New("replay", 64, func() sim.Time { return 0 })
	p := netstack.NewPool(1, netstack.EthMaxFrame).Get(netstack.EthMinFrame)
	rp := timeReplay("queue", 500000, func(n int) error {
		for i := 0; i < n; i += 2 {
			if !q.Enqueue(p) {
				return fmt.Errorf("enqueue refused on an empty queue")
			}
			if got := q.Dequeue(); got != p {
				return fmt.Errorf("dequeued %v, want the packet enqueued", got)
			}
		}
		return nil
	})
	return rp
}

// workloadFrame builds the frame shape a workload's generator offers:
// UDP to the phantom destination with payload bytes of data.
func workloadFrame(payload int) []byte {
	spec := netstack.FrameSpec{
		SrcMAC: netstack.MAC{0xbb, 0, 0, 0, 0, 1}, DstMAC: netstack.MAC{0xaa, 0, 0, 0, 0, 1},
		SrcIP: kernel.InputSourceIP(0), DstIP: kernel.PhantomDest,
		SrcPort: 5000, DstPort: 9, Payload: make([]byte, payload), UDPChecksum: true,
	}
	frame := make([]byte, spec.FrameLen())
	if _, err := netstack.BuildUDPFrame(frame, &spec); err != nil {
		panic(err)
	}
	return frame
}

// replayForward times Forwarder.Forward over the router's tables on the
// workload's frame, restoring the rewritten headers before each call.
func replayForward(payload int) replay {
	routes := netstack.NewRoutingTable()
	arp := netstack.NewARPTable()
	for _, rt := range []netstack.Route{
		{Prefix: netstack.AddrFrom(10, 0, 1, 0), Bits: 24, IfIndex: kernel.OutIfIndex},
		{Prefix: netstack.AddrFrom(10, 0, 0, 0), Bits: 24, IfIndex: 0},
	} {
		if err := routes.Insert(rt); err != nil {
			return replay{Name: "netstack.forward", Err: err}
		}
	}
	arp.Insert(kernel.InputSourceIP(0), netstack.MAC{0xbb, 0, 0, 0, 0, 1})
	arp.InsertPhantom(kernel.PhantomDest)
	f := netstack.NewForwarder(routes, arp)
	f.IfMAC[kernel.OutIfIndex] = netstack.MAC{0xaa, 0, 0, 0, 1, 0}
	f.IfMAC[0] = netstack.MAC{0xaa, 0, 0, 0, 0, 1}
	tmpl := workloadFrame(payload)
	frame := append([]byte(nil), tmpl...)
	hdr := netstack.EthHeaderLen + netstack.IPv4HeaderLen
	run := func(n int) error {
		for i := 0; i < n; i++ {
			copy(frame[:hdr], tmpl[:hdr])
			idx, err := f.Forward(frame)
			if err != nil {
				return err
			}
			if idx != kernel.OutIfIndex {
				return fmt.Errorf("forwarded to interface %d, want %d", idx, kernel.OutIfIndex)
			}
		}
		return nil
	}
	rp := timeReplay("netstack.forward", 200000, run)
	rp.AllocsPerOp = allocsPerOp(10000, run)
	return rp
}

// replayPool times one buffer Get plus its Release.
func replayPool() replay {
	pool := netstack.NewPool(64, netstack.EthMaxFrame)
	return timeReplay("netstack.pool", 500000, func(n int) error {
		for i := 0; i < n; i++ {
			p := pool.Get(netstack.EthMinFrame)
			if p == nil {
				return fmt.Errorf("pool exhausted")
			}
			p.Release()
		}
		if pool.Available() != pool.Total() {
			return fmt.Errorf("pool leaked buffers")
		}
		return nil
	})
}

// replayNIC times one frame through a NIC: Wire.Transmit onto the
// receive side, NIC.DeliverFrame into the ring, TakeRx, StartTx onto
// the output wire, and ReclaimTx once the sink has the frame.
func replayNIC(payload int) replay {
	eng := sim.NewEngine()
	pool := netstack.NewPool(8, netstack.EthMaxFrame)
	sink := nic.NewSink(eng, "replay-sink")
	dev := nic.New(eng, "replay", netstack.MAC{0xaa, 0, 0, 0, 0, 1}, nic.DefaultConfig(),
		nic.NewWire(eng, sink, nic.EthernetBitRate, 0))
	src := nic.NewWire(eng, dev, nic.EthernetBitRate, 0)
	frame := workloadFrame(payload)
	run := func(n int) error {
		d0 := sink.Delivered.Value()
		for i := 0; i < n; i++ {
			p := pool.Get(len(frame))
			copy(p.Data, frame)
			p.Born = eng.Now()
			src.Transmit(p)
			for eng.Step() {
			}
			got := dev.TakeRx()
			if got != p {
				return fmt.Errorf("ring returned %v, want the frame delivered", got)
			}
			if !dev.StartTx(got) {
				return fmt.Errorf("no free transmit descriptor")
			}
			for eng.Step() {
			}
			if !dev.ReclaimTx() {
				return fmt.Errorf("no completed descriptor to reclaim")
			}
		}
		if got := sink.Delivered.Value() - d0; got != uint64(n) || sink.Malformed.Value() != 0 {
			return fmt.Errorf("sink took %d valid frames of %d", got, n)
		}
		return nil
	}
	rp := timeReplay("nic", 50000, run)
	e0 := eng.Fired()
	if err := run(1000); err != nil && rp.Err == nil {
		rp.Err = err
	}
	rp.EventsPerOp = float64(eng.Fired()-e0) / 1000
	rp.AllocsPerOp = allocsPerOp(1000, run)
	return rp
}

// replayPoller times core.Poller steps over a synthetic device whose
// receive side is always ready until the batch is used up; every step
// must commit.
func replayPoller() replay {
	eng := sim.NewEngine()
	sys := cpu.NewSystem(eng, 1)
	pol := core.NewPoller(eng, sys.CPU(0), 10, core.PollerConfig{
		Quota: 5, WakeupCost: 30 * sim.Microsecond, RoundCost: 10 * sim.Microsecond})
	remaining, commits := 0, 0
	commit := func() { commits++ }
	pol.Register(&core.Device{
		Name: "replay",
		Rx: func() (sim.Duration, func(), bool) {
			if remaining == 0 {
				return 0, nil, false
			}
			remaining--
			return sim.Microsecond, commit, true
		},
		Tx: func() (sim.Duration, func(), bool) { return 0, nil, false },
	})
	run := func(n int) error {
		remaining, commits = n, 0
		s0 := pol.RxSteps.Value()
		pol.Schedule()
		for eng.Step() {
		}
		if steps := pol.RxSteps.Value() - s0; steps != uint64(n) || commits != n {
			return fmt.Errorf("%d steps, %d commits, want %d", steps, commits, n)
		}
		return nil
	}
	rp := timeReplay("core.step", 100000, run)
	events, disp, err := engineCounts(eng, sys, func() error { return run(1000) })
	if rp.Err == nil && err != nil {
		rp.Err = err
	}
	rp.EventsPerOp, rp.DispPerOp = float64(events)/1000, float64(disp)/1000
	rp.AllocsPerOp = allocsPerOp(10000, run)
	return rp
}

// replayGenerator times the open-loop generator's per-frame work —
// pacing event, frame build, Wire.Transmit — into a counting receiver.
// The 1000 pkts/s pace leaves the wire idle between frames of any
// workload's size, so no frame waits for the carrier.
func replayGenerator(payload int) replay {
	eng := sim.NewEngine()
	recv := &nic.CountingReceiver{}
	wire := nic.NewWire(eng, recv, nic.EthernetBitRate, 0)
	gen := workload.NewGenerator(eng, sim.NewRNG(1), wire, netstack.NewPool(64, netstack.EthMaxFrame),
		workload.Config{
			Arrival: workload.ConstantRate{Rate: 1000, JitterFrac: 0.05},
			SrcMAC:  netstack.MAC{0xbb, 0, 0, 0, 0, 1}, DstMAC: netstack.MAC{0xaa, 0, 0, 0, 0, 1},
			SrcIP: kernel.InputSourceIP(0), DstIP: kernel.PhantomDest,
			SrcPort: 5000, DstPort: 9, PayloadBytes: payload,
		})
	gen.Start()
	run := func(n int) error {
		target := gen.Sent.Value() + uint64(n)
		for gen.Sent.Value() < target {
			if !eng.Step() {
				return fmt.Errorf("generator stopped")
			}
		}
		if lag := gen.Sent.Value() - recv.Count; lag > 1 {
			return fmt.Errorf("%d frames sent but not received", lag)
		}
		return nil
	}
	rp := timeReplay("workload.frame", 100000, run)
	e0 := eng.Fired()
	if err := run(1000); err != nil && rp.Err == nil {
		rp.Err = err
	}
	rp.EventsPerOp = float64(eng.Fired()-e0) / 1000
	return rp
}

// replaySamplerTick times one metrics.Sampler tick over a hostile-tcp
// router's full registry. The sampler runs on its own engine so each
// step is exactly one tick; the instruments read the idle router.
func replaySamplerTick() replay {
	reg := lkmetrics.NewRegistry()
	cfg := kernel.Config{Mode: kernel.ModePolled, Quota: 5, Metrics: reg}
	cfg.NIC.Coalesce = nic.CoalesceConfig{Policy: nic.CoalesceCount, CountThresh: 8, TimerThresh: 5 * sim.Millisecond}
	kernel.NewRouter(sim.NewEngine(), cfg)
	rp := timeReplay("metrics.tick", 5000, func(n int) error {
		eng := sim.NewEngine()
		s := lkmetrics.NewSampler(eng, reg, sim.Microsecond)
		s.Start()
		for i := 0; i < n; i++ {
			eng.Step()
		}
		if eng.Fired() != uint64(n) {
			return fmt.Errorf("%d ticks fired, want %d", eng.Fired(), n)
		}
		return nil
	})
	rp.EventsPerOp = 1
	return rp
}
