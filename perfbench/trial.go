package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"livelock/internal/cpu"
	"livelock/internal/kernel"
	lkmetrics "livelock/internal/metrics"
	"livelock/internal/nic"
	"livelock/internal/prof"
	"livelock/internal/prov"
	"livelock/internal/queue"
	"livelock/internal/sim"
	"livelock/internal/workload"
)

// counts are the simulator's own work counters for one trial (or a sum
// over trials), read through the Router's public accessors. Every field
// is an exact count: two runs of one seed give identical counts at any
// GOMAXPROCS.
type counts struct {
	Trials        uint64
	Offered       uint64 // frames offered: generator Sent or TCP segments sent
	GenFrames     uint64 // frames built by the open-loop generator
	Useful        uint64 // frames delivered, or in-order TCP segments
	Events        uint64 // Engine.Fired
	PendingSum    uint64 // Engine.Pending summed over slice edges
	PendingN      uint64
	Dispatches    uint64
	Preemptions   uint64
	LockAcq       uint64
	LockContended uint64
	QueueEnq      uint64
	QueueDrops    uint64
	Forwards      uint64 // frames that reached the output interface's queue
	PoolPairs     uint64 // buffer Get/Release pairs: frames sourced
	NICFrames     uint64 // frames offered to any receive ring
	RxDiscards    uint64 // input-ring overflows
	RxAdmits      uint64 // frames offered to input rings
	CoalesceFires uint64
	PollRounds    uint64
	RxSteps       uint64
	TxSteps       uint64
	FbInhibits    uint64
	Reordered     uint64
	ProfUseful    uint64 // profiler useful cycles (simulated ns)
	ProfWasted    uint64
	SamplerTicks  uint64
	SimNs         uint64 // simulated ns covered
}

func (c *counts) add(o counts) {
	c.Trials += o.Trials
	c.Offered += o.Offered
	c.GenFrames += o.GenFrames
	c.Useful += o.Useful
	c.Events += o.Events
	c.PendingSum += o.PendingSum
	c.PendingN += o.PendingN
	c.Dispatches += o.Dispatches
	c.Preemptions += o.Preemptions
	c.LockAcq += o.LockAcq
	c.LockContended += o.LockContended
	c.QueueEnq += o.QueueEnq
	c.QueueDrops += o.QueueDrops
	c.Forwards += o.Forwards
	c.PoolPairs += o.PoolPairs
	c.NICFrames += o.NICFrames
	c.RxDiscards += o.RxDiscards
	c.RxAdmits += o.RxAdmits
	c.CoalesceFires += o.CoalesceFires
	c.PollRounds += o.PollRounds
	c.RxSteps += o.RxSteps
	c.TxSteps += o.TxSteps
	c.FbInhibits += o.FbInhibits
	c.Reordered += o.Reordered
	c.ProfUseful += o.ProfUseful
	c.ProfWasted += o.ProfWasted
	c.SamplerTicks += o.SamplerTicks
	c.SimNs += o.SimNs
}

// trialResult is one trial's host cost, work counts and simulated
// outcome digest.
type trialResult struct {
	Spec         *trialSpec
	SetupNs      int64  // NewRouter plus attaching the load
	RunNs        int64  // every Engine.Run/RunFor call
	AuditNs      int64  // Audit plus AuditCycles
	TotalNs      int64  // the whole trial, first to last host instant
	SetupMallocs uint64 // countAllocs only
	RunMallocs   uint64 // countAllocs only
	LiveHeap     uint64 // countAllocs only: live heap at the end of the run
	C            counts
	Digest       uint64
	Err          error
}

// readAllocs returns the exact cumulative heap object and byte counts.
// ReadMemStats flushes every P's cache, which runtime/metrics does not,
// so the counts it returns do not depend on GOMAXPROCS.
func readAllocs() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

var liveHeap = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// heapLive returns the heap the last GC marked live.
func heapLive() uint64 {
	metrics.Read(liveHeap)
	if liveHeap[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return liveHeap[0].Value.Uint64()
}

// runTrial runs one trial the way kernel.RunTrial does — build, attach,
// warm up, measure, drain, audit — timing each phase on the host CPU
// clock. With
// countAllocs it also counts the heap objects of construction and of
// the run; the stop-the-world reads that takes stay out of timed
// passes. A panic or a failed audit is returned in Err.
func runTrial(w workloadDef, t *trialSpec, tr *tracer, countAllocs bool) (res trialResult) {
	res.Spec = t
	start := cpuNow()
	var root spanID
	if tr != nil {
		root = tr.begin(fmt.Sprintf("trial %s/%d", w.Name, t.Index), 0, start)
	}
	defer func() {
		if p := recover(); p != nil {
			res.Err = fmt.Errorf("trial %d (%s): panic: %v", t.Index, t.Label, p)
		}
		end := cpuNow()
		res.TotalNs = (end - start).Nanoseconds()
		if tr != nil {
			tr.end(root, end, map[string]any{"workload": w.Name, "trial": t.Index,
				"arm": t.Arm, "label": t.Label})
		}
	}()

	var m0, m1, m2 uint64
	if countAllocs {
		m0, _ = readAllocs()
	}
	t0 := cpuNow()
	eng := sim.NewEngine()
	cfg := t.Cfg
	if t.TCP != nil {
		cfg.Profile = prof.New()
		cfg.Metrics = lkmetrics.NewRegistry()
	}
	r := kernel.NewRouter(eng, cfg)
	t1 := cpuNow()
	var (
		gen *workload.Generator
		rx  *kernel.TCPReceiver
		snd *kernel.TCPSender
	)
	if t.TCP == nil {
		gen = r.AttachGenerator(0, workload.ConstantRate{Rate: t.Rate, JitterFrac: 0.05}, 0)
		gen.Start()
	} else {
		rx = r.OpenTCPReceiver(tcpPort)
		if t.TCP.SACK {
			rx.EnableSACK()
		}
		if t.TCP.Reseq {
			rx.SetResequencing(tcpReseqHold)
		}
		snd = r.AttachTCPSender(0, kernel.TCPSenderConfig{
			Port: tcpPort, MSS: tcpMSS, Variant: t.TCP.Variant, MaxCwnd: tcpMaxCwnd, RTO: tcpRTO,
		})
		lkmetrics.NewSampler(eng, cfg.Metrics, samplerPeriod).Start()
		snd.Start()
	}
	t2 := cpuNow()
	if countAllocs {
		m1, _ = readAllocs()
	}
	res.SetupNs = (t2 - t0).Nanoseconds()
	res.SetupMallocs = m1 - m0
	if tr != nil {
		tr.span("NewRouter", root, t0, t1, nil)
		tr.span("attach", root, t1, t2, nil)
	}
	t3 := cpuNow()

	offered := func() uint64 {
		if gen != nil {
			return gen.Sent.Value()
		}
		return snd.SegmentsSent.Value()
	}
	useful := func() uint64 {
		if rx != nil {
			return rx.GoodputBytes
		}
		return r.Out.OutPkts.Value()
	}
	var c counts
	// edge closes a run phase: slice -1 is the warm-up, Slices the drain.
	edge := func(slice int, from time.Duration) time.Duration {
		now := cpuNow()
		c.PendingSum += uint64(eng.Pending())
		c.PendingN++
		if tr != nil {
			name := fmt.Sprintf("slice %d", slice)
			switch slice {
			case -1:
				name = "warmup"
			case w.Slices:
				name = "drain"
			}
			tr.span(name, root, from, now, nil)
			tr.counters(now, map[string]any{
				"sim_ms": float64(eng.Now()) / float64(sim.Millisecond), "events": eng.Fired(),
				"pending": eng.Pending(), "offered": offered(), "delivered": r.Delivered(),
			})
		}
		return now
	}

	eng.Run(sim.Time(w.Warmup))
	tw := edge(-1, t3)
	inBase, outBase, userBase := offered(), useful(), r.UserCPUTime()
	r.Sink.Latency.Reset()
	if cfg.Profile != nil {
		cfg.Profile.ResetStats()
	}
	last := tw
	for i := 0; i < w.Slices; i++ {
		eng.RunFor(w.Slice)
		last = edge(i, last)
	}
	measure := w.measure()
	inRate := float64(offered()-inBase) / measure.Seconds()
	outRate := float64(useful()-outBase) / measure.Seconds()
	userFrac := float64(r.UserCPUTime()-userBase) / float64(measure)
	p50, p99 := r.Sink.Latency.Quantile(0.50), r.Sink.Latency.Quantile(0.99)
	jitter := r.Sink.Latency.Quantile(0.90) - r.Sink.Latency.Quantile(0.10)
	var wasted float64
	if cfg.Profile != nil {
		wasted = cfg.Profile.WastedFrac()
	}

	if gen != nil {
		gen.Stop()
	}
	eng.RunFor(w.Drain)
	td := edge(w.Slices, last)
	if countAllocs {
		m2, _ = readAllocs()
		// With the router still referenced, a full collection leaves
		// exactly the trial's live state: the live heap at its largest,
		// free of the floating garbage a concurrent cycle keeps.
		runtime.GC()
		res.LiveHeap = heapLive()
	}
	res.RunNs = (td - t3).Nanoseconds()
	res.RunMallocs = m2 - m1

	acc := r.Account()
	auditErr := r.Audit(offered())
	ta := cpuNow()
	cycleErr := r.AuditCycles()
	tc := cpuNow()
	res.AuditNs = (tc - td).Nanoseconds()
	if tr != nil {
		tr.span("Audit", root, td, ta, nil)
		tr.span("AuditCycles", root, ta, tc, nil)
	}
	if auditErr != nil {
		res.Err = fmt.Errorf("trial %d (%s): %w", t.Index, t.Label, auditErr)
	} else if cycleErr != nil {
		res.Err = fmt.Errorf("trial %d (%s): %w", t.Index, t.Label, cycleErr)
	}

	// The digest folds every simulated output a pure speed-up must
	// leave unchanged. Host-side work counts (events, dispatches) stay
	// out: a faster simulator may legitimately do less of them.
	d := newDigest()
	d.f64(inRate)
	d.f64(outRate)
	d.f64(userFrac)
	d.f64(wasted)
	d.u64(uint64(p50), uint64(p99), uint64(jitter))
	d.u64(acc.Delivered, acc.RevDelivered, acc.RingDrops, acc.IPIntrQDrops, acc.ScreendDrops,
		acc.OutQueueDrops, acc.FilterDrops, acc.SocketDrops, acc.FwdErrors, acc.BadChecksums,
		acc.Truncated, acc.TTLDrops, acc.Malformed, acc.Originated, acc.AppConsumed,
		acc.FragsConsumed, acc.EchoConsumed, acc.TCPConsumed, uint64(acc.Alive),
		acc.WireDrops, acc.StallDrops, acc.ResetDrops, acc.Duplicated, offered())
	r.VisitCPUs(func(c *cpu.CPU) {
		for ct := prov.Center(0); ct < prov.NumCenters; ct++ {
			d.u64(uint64(c.CenterTime(ct)))
		}
		d.u64(uint64(c.IdleTime()))
	})
	if rx != nil {
		d.u64(rx.GoodputBytes, rx.RcvNxt(), snd.AckedBytes(), snd.Retransmits.Value(),
			snd.Timeouts.Value(), snd.RtxSegments.Value())
	}
	res.Digest = d.sum()

	c.Trials = 1
	c.Offered = offered()
	if gen != nil {
		c.GenFrames = gen.Sent.Value()
		c.Useful = r.Delivered()
	} else {
		c.Useful = rx.GoodputBytes / tcpMSS
		if p := r.Profile(); p != nil {
			c.ProfUseful = uint64(p.UsefulCycles())
			c.ProfWasted = uint64(p.WastedCycles())
		}
		c.SamplerTicks = uint64(eng.Now()) / uint64(samplerPeriod)
	}
	c.Events = eng.Fired()
	c.SimNs = uint64(eng.Now())
	r.VisitCPUs(func(cp *cpu.CPU) {
		c.Dispatches += cp.Dispatches()
		c.Preemptions += cp.Preemptions()
	})
	if ipq, net := r.Locks(); ipq != nil {
		c.LockAcq = ipq.Acquisitions() + net.Acquisitions()
		c.LockContended = ipq.Contended() + net.Contended()
	}
	countQueue := func(q *queue.Queue) {
		if q != nil {
			c.QueueEnq += q.Enqueued.Value()
			c.QueueDrops += q.Drops.Value()
		}
	}
	ipintrq, _, screendq := r.QueueStats()
	countQueue(ipintrq)
	countQueue(screendq)
	r.VisitPorts(func(idx int, n *nic.NIC, outq *queue.Queue) {
		countQueue(outq)
		if idx == kernel.OutIfIndex {
			c.Forwards = outq.Enqueued.Value() + outq.Drops.Value()
		}
		admits := n.InPkts.Value() + n.InDiscards.Value()
		c.NICFrames += admits
		if idx != kernel.OutIfIndex {
			c.RxAdmits += admits
			c.RxDiscards += n.InDiscards.Value()
		}
		c.CoalesceFires += n.CoalesceCountFires.Value() + n.CoalesceTimerFires.Value()
	})
	c.PoolPairs = c.Offered + acc.Originated + acc.Duplicated
	if ps := r.Poller(); ps != nil {
		c.PollRounds = ps.Rounds
		c.RxSteps = ps.RxSteps
		c.TxSteps = ps.TxSteps
		c.FbInhibits = ps.FeedbackInhibits
	}
	if pl := r.Fault(); pl != nil {
		c.Reordered = pl.Reordered.Value()
	}
	res.C = c
	return res
}

// digest is FNV-1a over the little-endian encoding of its inputs.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u64(vs ...uint64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(d.buf[:], v)
		d.h.Write(d.buf[:])
	}
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) sum() uint64 { return d.h.Sum64() }
