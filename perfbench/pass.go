package main

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
)

// passResult is one run of every trial of a workload, in order, from
// one goroutine.
type passResult struct {
	PassNs     int64 // the whole pass, on the host CPU clock
	SetupNs    int64
	RunNs      int64
	AuditNs    int64
	TrialNs    []int64 // per trial, in trial order: the whole trial
	TrialSetup []int64 // per trial: NewRouter plus attach
	TrialRun   []int64 // per trial: Engine.Run
	Mallocs    uint64  // whole pass, setup included
	AllocBytes uint64
	SetupAlloc uint64 // fixedGC passes only
	RunAlloc   uint64 // fixedGC passes only
	PeakLive   uint64 // fixedGC passes only: largest live heap at a trial's end
	LiveSum    uint64 // live heap (last GC's mark) summed over trial edges
	GCCycles   uint64
	GCCPU      float64 // runtime/metrics GC CPU seconds
	TotalCPU   float64
	C          counts
	ArmRunNs   map[string]int64
	ArmOffered map[string]uint64
	Digests    []uint64
	Errs       []error // nil entries for clean trials
	TrialCal   []int64 // timedPass only: per trial, the calibration chunk run after it
}

// passMode selects what a pass measures besides checking its results.
type passMode int

const (
	// plainPass only checks: the warm-up, recording, and traced runs.
	plainPass passMode = iota
	// allocPass counts allocations, with collections at fixed points.
	allocPass
	// timedPass ends every trial with a timed collection and runs a
	// calibration chunk after it.
	timedPass
)

var gcSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGC() (cycles uint64, gcCPU, totalCPU float64) {
	metrics.Read(gcSamples)
	if gcSamples[0].Value.Kind() == metrics.KindUint64 {
		cycles = gcSamples[0].Value.Uint64()
	}
	if gcSamples[1].Value.Kind() == metrics.KindFloat64 {
		gcCPU = gcSamples[1].Value.Float64()
	}
	if gcSamples[2].Value.Kind() == metrics.KindFloat64 {
		totalCPU = gcSamples[2].Value.Float64()
	}
	return
}

// runPass runs the trials one at a time and aggregates their costs.
//
// An allocPass runs on one P with the collector held off
// inside every trial and a full collection before each one and at the
// end of its run (runTrial, which reads the peak live heap there). The
// sync.Pool caches the program uses (fmt's printer cache, for one) are
// per P and emptied by collections, so only then do their refills — and
// with them the heap object counts — repeat exactly, independent of GC
// timing and of GOMAXPROCS. Such a pass counts allocations; its times
// are not used, since it moves the collector's work out of the trials.
//
// A timedPass ends every trial with a full collection, timed as part of
// the trial: each trial pays for collecting its own garbage, and starts
// on the same small heap in every pass, so the collector's cycles fall
// in the same trials every pass instead of wherever the heap happened to
// fill. That is a trial's cost when run alone: from a small heap the
// collector runs more often (on paper-up three cycles per trial, the
// closing one included, against about one when trials run back to back
// on the heap the last one left), and times are steadier. A calibration
// chunk (calib.go) then runs with the collector idle.
func runPass(w workloadDef, trials []trialSpec, tr *tracer, mode passMode, cal *calibrator) passResult {
	fixedGC := mode == allocPass
	p := passResult{
		TrialNs:    make([]int64, 0, len(trials)),
		TrialSetup: make([]int64, 0, len(trials)),
		TrialRun:   make([]int64, 0, len(trials)),
		ArmRunNs:   map[string]int64{},
		ArmOffered: map[string]uint64{},
	}
	if fixedGC {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
	}
	gc0, gcCPU0, cpu0 := readGC()
	m0, b0 := readAllocs()
	start := cpuNow()
	for i := range trials {
		if fixedGC {
			runtime.GC()
		}
		res := runTrial(w, &trials[i], tr, fixedGC)
		if mode == timedPass {
			t0 := cpuNow()
			runtime.GC()
			res.TotalNs += (cpuNow() - t0).Nanoseconds()
			p.TrialCal = append(p.TrialCal, cal.chunk())
		}
		p.SetupNs += res.SetupNs
		p.RunNs += res.RunNs
		p.AuditNs += res.AuditNs
		p.TrialNs = append(p.TrialNs, res.TotalNs)
		p.TrialSetup = append(p.TrialSetup, res.SetupNs)
		p.TrialRun = append(p.TrialRun, res.RunNs)
		p.SetupAlloc += res.SetupMallocs
		p.RunAlloc += res.RunMallocs
		p.C.add(res.C)
		p.ArmRunNs[res.Spec.Arm] += res.RunNs
		p.ArmOffered[res.Spec.Arm] += res.C.Offered
		p.Digests = append(p.Digests, res.Digest)
		p.Errs = append(p.Errs, res.Err)
		p.LiveSum += heapLive()
		if res.LiveHeap > p.PeakLive {
			p.PeakLive = res.LiveHeap
		}
	}
	p.PassNs = (cpuNow() - start).Nanoseconds()
	m1, b1 := readAllocs()
	gc1, gcCPU1, cpu1 := readGC()
	p.Mallocs, p.AllocBytes = m1-m0, b1-b0
	p.GCCycles, p.GCCPU, p.TotalCPU = gc1-gc0, gcCPU1-gcCPU0, cpu1-cpu0
	return p
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest whole percentile of n samples that
// still has at least ten samples beyond it (0 if n is too small).
func tailPercentile(n int) int {
	for p := 99; p >= 50; p-- {
		k := (p*n + 99) / 100 // ceil(p·n/100): the rank of the p-th percentile
		if n-k >= 10 {
			return p
		}
	}
	return 0
}

// percentile returns the p-th percentile (nearest rank) of v.
func percentile(v []float64, p int) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := (p*len(s)+99)/100 - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}
