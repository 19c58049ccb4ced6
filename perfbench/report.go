package main

import (
	"math"
)

// metricSpec is one printed metric. BENCHMARK.json lists the same
// names, units and directions (a test keeps the two in step).
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
}

// endToEndSpecs are what a user of the simulator sees, measured with
// tracing off.
var endToEndSpecs = []metricSpec{
	{"wall_s", "s", "lower", 0.24},
	{"setup_s", "s", "lower", 0.25},
	{"host_ns_per_pkt", "ns", "lower", 0.24},
	{"sim_s_per_host_s", "s/s", "higher", 0.24},
	{"trial_ms_p50", "ms", "lower", 0.24},
	{"trial_ms_tail", "ms", "lower", 0.24},
	{"allocs_per_pkt", "1/pkt", "lower", 0.05},
	{"alloc_bytes_per_pkt", "B/pkt", "lower", 0.05},
	{"peak_heap_mb", "MiB", "lower", 0.15},
}

// perLayerSpecs are the traced run's per-layer metrics. Every name is
// printed on every workload; a layer a workload does not exercise
// reads 0 (kernel.ns_per_pkt.<arm> for another workload's arm, the
// lock metrics on one core, prof and fault outside hostile-tcp).
func perLayerSpecs() []metricSpec {
	s := []metricSpec{
		{"sim.events_per_pkt", "1/pkt", "lower", 0},
		{"sim.ns_per_event", "ns", "lower", 0},
		{"sim.replay_ns_per_event", "ns", "lower", 0},
		{"sim.pending_mean", "count", "lower", 0},
		{"sim.share", "fraction", "lower", 0},
		{"cpu.dispatches_per_pkt", "1/pkt", "lower", 0},
		{"cpu.preemptions_per_pkt", "1/pkt", "lower", 0},
		{"cpu.replay_ns_per_dispatch", "ns", "lower", 0},
		{"cpu.replay_ns_per_locked", "ns", "lower", 0},
		{"cpu.lock_contended_frac", "fraction", "lower", 0},
		{"cpu.share", "fraction", "lower", 0},
		{"queue.enq_per_pkt", "1/pkt", "lower", 0},
		{"queue.drop_frac", "fraction", "lower", 0},
		{"queue.replay_ns_per_op", "ns", "lower", 0},
		{"queue.share", "fraction", "lower", 0},
		{"netstack.replay_forward_ns", "ns", "lower", 0},
		{"netstack.replay_pool_ns", "ns", "lower", 0},
		{"netstack.replay_allocs_per_op", "1/op", "lower", 0},
		{"netstack.share", "fraction", "lower", 0},
		{"nic.rx_discard_frac", "fraction", "lower", 0},
		{"nic.coalesce_fires_per_pkt", "1/pkt", "lower", 0},
		{"nic.replay_ns_per_frame", "ns", "lower", 0},
		{"nic.replay_allocs_per_frame", "1/op", "lower", 0},
		{"nic.share", "fraction", "lower", 0},
		{"core.rounds_per_pkt", "1/pkt", "lower", 0},
		{"core.rx_steps_per_round", "1/round", "higher", 0},
		{"core.feedback_inhibits_per_sim_s", "1/s", "lower", 0},
		{"core.replay_ns_per_step", "ns", "lower", 0},
		{"core.replay_allocs_per_step", "1/op", "lower", 0},
		{"core.share", "fraction", "lower", 0},
		{"kernel.setup_ms", "ms", "lower", 0},
		{"kernel.setup_allocs", "count", "lower", 0},
		{"kernel.steady_allocs_per_pkt", "1/pkt", "lower", 0},
	}
	for _, arm := range allArms() {
		s = append(s, metricSpec{"kernel.ns_per_pkt." + arm, "ns", "lower", 0})
	}
	s = append(s, []metricSpec{
		{"kernel.audit_ms", "ms", "lower", 0},
		{"kernel.delivered_frac", "fraction", "higher", 0},
		{"workload.replay_ns_per_frame", "ns", "lower", 0},
		{"workload.share", "fraction", "lower", 0},
		{"fault.reordered_per_kpkt", "1/kpkt", "lower", 0},
		{"prof.wasted_frac", "fraction", "lower", 0},
		{"metrics.replay_ns_per_tick", "ns", "lower", 0},
		{"metrics.share", "fraction", "lower", 0},
		{"runtime.gc_cpu_frac", "fraction", "lower", 0},
		{"runtime.gc_cycles_per_sim_s", "1/s", "lower", 0},
		{"runtime.heap_live_mb", "MiB", "lower", 0},
		{"unattributed.share", "fraction", "lower", 0},
		{"bench.trace_overhead_frac", "fraction", "lower", 0},
		{"bench.calib_ms", "ms", "lower", 0},
		{"failed_frac", "fraction", "lower", 0},
	}...)
	return s
}

const mib = 1 << 20

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// trialMedians returns, for each trial, the median over passes of
// field(pass)[trial] in units of the calibration chunk run after that
// trial, times calRefNs: the trial's host time on a host where a chunk
// takes calRefNs. Host noise on a shared machine comes in bursts shorter
// than a pass, and in slow stretches of minutes. A burst slows a few
// trials of one pass, and the per-trial median discards it where a
// median of pass totals would not. A slow stretch slows the trial and
// its chunk alike, and the ratio cancels it.
func trialMedians(passes []passResult, field func(passResult) []int64) []float64 {
	n := len(field(passes[0]))
	out := make([]float64, n)
	v := make([]float64, len(passes))
	for i := 0; i < n; i++ {
		for j, p := range passes {
			v[j] = float64(field(p)[i]) / float64(p.TrialCal[i])
		}
		out[i] = median(v) * calRefNs
	}
	return out
}

// medianCal is the median calibration chunk time of the passes, in ns.
func medianCal(passes []passResult) float64 {
	var v []float64
	for _, p := range passes {
		for _, c := range p.TrialCal {
			v = append(v, float64(c))
		}
	}
	return median(v)
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// endToEnd computes the end-to-end metrics of a run's timed passes and
// its allocation-counting pass, which also gives the peak live heap.
// The host times of one pass of the workload are estimated trial by
// trial: each trial's calibrated median over the passes, summed.
func endToEnd(passes []passResult, allocs passResult) map[string]float64 {
	total := trialMedians(passes, func(p passResult) []int64 { return p.TrialNs })
	setup := trialMedians(passes, func(p passResult) []int64 { return p.TrialSetup })
	run := trialMedians(passes, func(p passResult) []int64 { return p.TrialRun })
	c := passes[0].C
	wall := sum(total) / 1e9
	off := float64(allocs.C.Offered)
	return map[string]float64{
		"wall_s":              wall,
		"setup_s":             sum(setup) / 1e9,
		"host_ns_per_pkt":     ratio(sum(run), float64(c.Offered)),
		"sim_s_per_host_s":    ratio(float64(c.SimNs)/1e9, wall),
		"trial_ms_p50":        percentile(total, 50) / 1e6,
		"trial_ms_tail":       percentile(total, tailPercentile(len(total))) / 1e6,
		"allocs_per_pkt":      ratio(float64(allocs.Mallocs), off),
		"alloc_bytes_per_pkt": ratio(float64(allocs.AllocBytes), off),
		"peak_heap_mb":        float64(allocs.PeakLive) / mib,
	}
}

// replays holds one run of every layer replay.
type replays struct {
	Sim, Dispatch, Locked, Queue, Forward, Pool, NIC, Poller, Generator, Tick replay
}

func (r replays) all() []replay {
	return []replay{r.Sim, r.Dispatch, r.Locked, r.Queue, r.Forward, r.Pool, r.NIC, r.Poller, r.Generator, r.Tick}
}

// runReplays times every layer replay, shaped by the workload: the
// engine at its mean pending depth and frames of its payload size.
func runReplays(pendingMean float64, payload int, tr *tracer) replays {
	timed := func(f func() replay) replay {
		start := cpuNow()
		rp := f()
		if tr != nil {
			tr.span("replay "+rp.Name, 0, start, cpuNow(), map[string]any{
				"ns_per_op": rp.NsPerOp, "ops": rp.Ops, "events_per_op": rp.EventsPerOp})
		}
		return rp
	}
	depth := int(math.Round(pendingMean))
	var r replays
	r.Sim = timed(func() replay { return replaySim(depth) })
	r.Dispatch = timed(replayDispatch)
	r.Locked = timed(replayLocked)
	r.Queue = timed(replayQueue)
	r.Forward = timed(func() replay { return replayForward(payload) })
	r.Pool = timed(replayPool)
	r.NIC = timed(func() replay { return replayNIC(payload) })
	r.Poller = timed(replayPoller)
	r.Generator = timed(func() replay { return replayGenerator(payload) })
	r.Tick = timed(replaySamplerTick)
	return r
}

func nonNeg(v float64) float64 { return math.Max(0, v) }

// layerNs charges each layer calls × its self time per call, where a
// replay's self time is its measured ns/op less the lower layers it
// drove (engine events, CPU dispatches, pool buffers).
func layerNs(c counts, r replays) map[string]float64 {
	simSelf := r.Sim.NsPerOp
	dispSelf := nonNeg(r.Dispatch.NsPerOp - r.Dispatch.EventsPerOp*simSelf)
	lockedSelf := nonNeg(r.Locked.NsPerOp - r.Locked.EventsPerOp*simSelf)
	nicSelf := nonNeg(r.NIC.NsPerOp - r.NIC.EventsPerOp*simSelf - r.Pool.NsPerOp)
	coreSelf := nonNeg(r.Poller.NsPerOp - r.Poller.EventsPerOp*simSelf - r.Poller.DispPerOp*dispSelf)
	genSelf := nonNeg(r.Generator.NsPerOp - r.Generator.EventsPerOp*simSelf - r.Pool.NsPerOp)
	tickSelf := nonNeg(r.Tick.NsPerOp - simSelf)
	f := func(u uint64) float64 { return float64(u) }
	return map[string]float64{
		"sim":      f(c.Events) * simSelf,
		"cpu":      f(c.Dispatches)*dispSelf + f(c.LockAcq)*nonNeg(lockedSelf-dispSelf),
		"queue":    f(2*c.QueueEnq+c.QueueDrops) * r.Queue.NsPerOp,
		"netstack": f(c.Forwards)*r.Forward.NsPerOp + f(c.PoolPairs)*r.Pool.NsPerOp,
		"nic":      f(c.NICFrames) * nicSelf,
		"core":     f(c.RxSteps+c.TxSteps) * coreSelf,
		"workload": f(c.GenFrames) * genSelf,
		"metrics":  f(c.SamplerTicks) * tickSelf,
	}
}

// perLayer computes the traced run's per-layer metrics from the traced
// passes' counters and host times plus the replays. Its host times are
// raw, not calibrated; calibMs, a calibration chunk's median time, gives
// the host's speed during the run.
func perLayer(traced, untraced []passResult, allocs passResult, r replays, failedFrac, calibMs float64) map[string]float64 {
	var (
		c                       counts
		runNs, setupNs, auditNs float64
		liveSum                 float64
		gcCycles                float64
		gcCPU, totalCPU         float64
		armNs                   = map[string]float64{}
		armOff                  = map[string]float64{}
		tracedNs, untracedNs    []float64
	)
	for _, p := range traced {
		c.add(p.C)
		runNs += float64(p.RunNs)
		setupNs += float64(p.SetupNs)
		auditNs += float64(p.AuditNs)
		liveSum += float64(p.LiveSum)
		gcCycles += float64(p.GCCycles)
		gcCPU += p.GCCPU
		totalCPU += p.TotalCPU
		for a, v := range p.ArmRunNs {
			armNs[a] += float64(v)
			armOff[a] += float64(p.ArmOffered[a])
		}
		tracedNs = append(tracedNs, float64(p.PassNs))
	}
	for _, p := range untraced {
		untracedNs = append(untracedNs, float64(p.PassNs))
	}
	f := func(u uint64) float64 { return float64(u) }
	off := f(c.Offered)
	trials := f(c.Trials)
	simS := f(c.SimNs) / 1e9
	m := map[string]float64{
		"sim.events_per_pkt":               ratio(f(c.Events), off),
		"sim.ns_per_event":                 ratio(runNs, f(c.Events)),
		"sim.replay_ns_per_event":          r.Sim.NsPerOp,
		"sim.pending_mean":                 ratio(f(c.PendingSum), f(c.PendingN)),
		"cpu.dispatches_per_pkt":           ratio(f(c.Dispatches), off),
		"cpu.preemptions_per_pkt":          ratio(f(c.Preemptions), off),
		"cpu.replay_ns_per_dispatch":       r.Dispatch.NsPerOp,
		"cpu.replay_ns_per_locked":         r.Locked.NsPerOp,
		"cpu.lock_contended_frac":          ratio(f(c.LockContended), f(c.LockAcq)),
		"queue.enq_per_pkt":                ratio(f(c.QueueEnq), off),
		"queue.drop_frac":                  ratio(f(c.QueueDrops), f(c.QueueEnq+c.QueueDrops)),
		"queue.replay_ns_per_op":           r.Queue.NsPerOp,
		"netstack.replay_forward_ns":       r.Forward.NsPerOp,
		"netstack.replay_pool_ns":          r.Pool.NsPerOp,
		"netstack.replay_allocs_per_op":    r.Forward.AllocsPerOp,
		"nic.rx_discard_frac":              ratio(f(c.RxDiscards), f(c.RxAdmits)),
		"nic.coalesce_fires_per_pkt":       ratio(f(c.CoalesceFires), off),
		"nic.replay_ns_per_frame":          r.NIC.NsPerOp,
		"nic.replay_allocs_per_frame":      r.NIC.AllocsPerOp,
		"core.rounds_per_pkt":              ratio(f(c.PollRounds), off),
		"core.rx_steps_per_round":          ratio(f(c.RxSteps), f(c.PollRounds)),
		"core.feedback_inhibits_per_sim_s": ratio(f(c.FbInhibits), simS),
		"core.replay_ns_per_step":          r.Poller.NsPerOp,
		"core.replay_allocs_per_step":      r.Poller.AllocsPerOp,
		"kernel.setup_ms":                  ratio(setupNs/1e6, trials),
		"kernel.setup_allocs":              ratio(float64(allocs.SetupAlloc), float64(allocs.C.Trials)),
		"kernel.steady_allocs_per_pkt":     ratio(float64(allocs.RunAlloc), float64(allocs.C.Offered)),
		"kernel.audit_ms":                  ratio(auditNs/1e6, trials),
		"kernel.delivered_frac":            ratio(f(c.Useful), off),
		"workload.replay_ns_per_frame":     r.Generator.NsPerOp,
		"fault.reordered_per_kpkt":         ratio(1000*f(c.Reordered), off),
		"prof.wasted_frac":                 ratio(f(c.ProfWasted), f(c.ProfUseful+c.ProfWasted)),
		"metrics.replay_ns_per_tick":       r.Tick.NsPerOp,
		"runtime.gc_cpu_frac":              ratio(gcCPU, totalCPU),
		"runtime.gc_cycles_per_sim_s":      ratio(gcCycles, simS),
		"runtime.heap_live_mb":             ratio(liveSum, trials) / mib,
		"bench.trace_overhead_frac":        ratio(median(tracedNs), median(untracedNs)) - 1,
		"bench.calib_ms":                   calibMs,
		"failed_frac":                      failedFrac,
	}
	for _, arm := range allArms() {
		m["kernel.ns_per_pkt."+arm] = ratio(armNs[arm], armOff[arm])
	}
	attributed := 0.0
	for layer, ns := range layerNs(c, r) {
		share := ratio(ns, runNs)
		m[layer+".share"] = share
		attributed += share
	}
	m["unattributed.share"] = 1 - attributed
	return m
}
