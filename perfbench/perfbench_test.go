package main

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"testing"

	"livelock/internal/kernel"
	"livelock/internal/sim"
	"livelock/internal/workload"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestMetricNames checks every printed name and unit against the
// benchmark contract and against BENCHMARK.json.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), endToEndSpecs...), perLayerSpecs()...) {
		if !nameRE.MatchString(s.Name) || !unitRE.MatchString(s.Unit) {
			t.Errorf("metric %q unit %q: malformed", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("metric %q: better %q", s.Name, s.Better)
		}
		if seen[s.Name] {
			t.Errorf("metric %q listed twice", s.Name)
		}
		seen[s.Name] = true
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark defines %d", names, len(workloads))
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better ||
				(kind == "end_to_end" && got[i].Bound != want[i].Bound) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEndSpecs)
	same("per_layer", bench.PerLayer, perLayerSpecs())
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]int{326: 96, 48: 79, 9: 0} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %d, want %d", n, got, want)
		}
	}
}

// warmPass runs one pass of the golden seed, as every benchmark run
// does before it measures.
func warmPass(t *testing.T, w workloadDef) passResult {
	t.Helper()
	p := runPass(w, w.trials(goldenSeed), nil, plainPass, nil)
	for _, err := range p.Errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	return p
}

// TestCountsDeterministic checks that the count metrics — work
// counters, allocations and result digests — repeat exactly across two
// passes of one seed and across GOMAXPROCS 1 and 2.
func TestCountsDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range workloads {
		if testing.Short() && w.Name == "paper-up" {
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			warmPass(t, w)
			trials := w.trials(7)
			var ref passResult
			for i, procs := range []int{1, 1, 2, 2} {
				runtime.GOMAXPROCS(procs)
				// A collection at the new GOMAXPROCS starts its mark
				// workers (heap-allocated goroutines) before counting.
				runtime.GC()
				p := runPass(w, trials, nil, allocPass, nil)
				if i == 0 {
					ref = p
					continue
				}
				if p.C != ref.C {
					t.Errorf("GOMAXPROCS %d: counts %+v, first pass %+v", procs, p.C, ref.C)
				}
				if !raceEnabled && (p.Mallocs != ref.Mallocs || p.AllocBytes != ref.AllocBytes) {
					t.Errorf("GOMAXPROCS %d: %d allocs %d bytes, first pass %d allocs %d bytes",
						procs, p.Mallocs, p.AllocBytes, ref.Mallocs, ref.AllocBytes)
				}
				if combine(p.Digests) != combine(ref.Digests) {
					t.Errorf("GOMAXPROCS %d: result digest differs", procs)
				}
			}
		})
	}
}

// TestGoldenDigests replays the recorded seed against its digests and
// runs an unrecorded seed, whose audits must pass.
func TestGoldenDigests(t *testing.T) {
	for _, w := range workloads {
		if testing.Short() && w.Name == "paper-up" {
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			golden, err := loadGolden(w.Name)
			if err != nil {
				t.Fatal(err)
			}
			p := warmPass(t, w)
			want := golden[goldenSeed]
			if len(want) != len(p.Digests) {
				t.Fatalf("%d recorded digests, %d trials", len(want), len(p.Digests))
			}
			for i := range want {
				if p.Digests[i] != want[i] {
					t.Errorf("trial %d (%s): digest %016x, recorded %016x", i, w.trials(goldenSeed)[i].Label, p.Digests[i], want[i])
				}
			}
			for _, err := range runPass(w, w.trials(424242), nil, plainPass, nil).Errs {
				if err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestReplaysAndShares checks that every replay timed a working path
// and that the layer shares plus unattributed.share sum to 1.
func TestReplaysAndShares(t *testing.T) {
	w, _ := workloadByName("hostile-tcp")
	p := warmPass(t, w)
	rp := runReplays(ratio(float64(p.C.PendingSum), float64(p.C.PendingN)), tcpMSS, nil)
	for _, r := range rp.all() {
		if r.Err != nil {
			t.Error(r.Err)
		}
		if r.NsPerOp <= 0 {
			t.Errorf("replay %s: %g ns/op", r.Name, r.NsPerOp)
		}
	}
	if rp.Forward.AllocsPerOp < 0 || rp.Poller.AllocsPerOp < 0 {
		t.Errorf("allocs/op not measured: forward %g, poller %g", rp.Forward.AllocsPerOp, rp.Poller.AllocsPerOp)
	}
	m := perLayer([]passResult{p}, []passResult{p}, p, rp, 0, newCalibrator().chunkMs(5))
	sum := m["unattributed.share"]
	for layer := range layerNs(p.C, rp) {
		share, ok := m[layer+".share"]
		if !ok || share < 0 {
			t.Errorf("%s.share = %g (present %v)", layer, share, ok)
		}
		sum += share
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g", sum)
	}
	for _, s := range perLayerSpecs() {
		if _, ok := m[s.Name]; !ok {
			t.Errorf("per-layer metric %s not computed", s.Name)
		}
	}
}

// TestSimulatedSecondAllocs compares the benchmark's polled quota-5
// point at 5000 pkts/s with the repository's BenchmarkSimulatedSecond
// scenario once construction is split out of the latter: both must
// allocate the same per simulated second of load.
func TestSimulatedSecondAllocs(t *testing.T) {
	w, _ := workloadByName("paper-up")
	var point *trialSpec
	trials := w.trials(goldenSeed)
	for i := range trials {
		c := trials[i].Cfg
		if c.Mode == kernel.ModePolled && c.Quota == 5 && !c.Screend && !c.UserProcess && trials[i].Rate == 5000 {
			point = &trials[i]
		}
	}
	if point == nil {
		t.Fatal("paper-up has no polled q5 point at 5000 pkts/s")
	}
	simulatedSecond := func() (construct, steady uint64) {
		m0, _ := readAllocs()
		eng := sim.NewEngine()
		r := kernel.NewRouter(eng, kernel.Config{Mode: kernel.ModePolled, Quota: 5})
		gen := r.AttachGenerator(0, workload.ConstantRate{Rate: 5000, JitterFrac: 0.05}, 0)
		gen.Start()
		m1, _ := readAllocs()
		eng.Run(sim.Time(sim.Second))
		m2, _ := readAllocs()
		return m1 - m0, m2 - m1
	}
	simulatedSecond()
	construct, steady := simulatedSecond()
	runTrial(w, point, nil, true)
	res := runTrial(w, point, nil, true)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	perSimSecond := float64(res.RunMallocs) / (float64(res.C.Offered) / 5000)
	t.Logf("SimulatedSecond: %d allocs = %d construction + %d steady per simulated second",
		construct+steady, construct, steady)
	t.Logf("benchmark point: %d setup allocs, %d run allocs for %d frames = %.0f per simulated second of load",
		res.SetupMallocs, res.RunMallocs, res.C.Offered, perSimSecond)
	if d := math.Abs(perSimSecond-float64(steady)) / float64(steady); d > 0.05 {
		t.Errorf("steady allocs differ by %.1f%%", 100*d)
	}
}

// TestPaperUpFigureTimes sums paper-up's per-trial host time by the
// figure that plots each point and checks the ROADMAP's serial sweep
// ranking: figures 6-6, 6-5 and 6-3 take the longest, 6-3 the least of
// the three.
func TestPaperUpFigureTimes(t *testing.T) {
	if testing.Short() {
		t.Skip("times a full paper-up pass")
	}
	w, _ := workloadByName("paper-up")
	warmPass(t, w)
	trials := w.trials(goldenSeed)
	byFig := map[string]float64{}
	for pass := 0; pass < 3; pass++ {
		for i := range trials {
			res := runTrial(w, &trials[i], nil, false)
			for _, f := range trials[i].Figs {
				byFig[f] += float64(res.TotalNs) / 3
			}
		}
	}
	var figs []string
	for f := range byFig {
		figs = append(figs, f)
	}
	sort.Slice(figs, func(i, j int) bool { return byFig[figs[i]] > byFig[figs[j]] })
	for _, f := range figs {
		t.Logf("figure %s: %.0f ms per pass", f, byFig[f]/1e6)
	}
	top := map[string]bool{figs[0]: true, figs[1]: true, figs[2]: true}
	if !top["6-6"] || !top["6-5"] || figs[2] != "6-3" {
		t.Errorf("ranking %v, want 6-6 and 6-5 then 6-3 first", figs)
	}
}

// TestCalibratorFixedWork checks that every calibration chunk does the
// same work, drops some packets at its ring (so the drop path runs),
// and allocates nothing once built, so it never starts a collection.
func TestCalibratorFixedWork(t *testing.T) {
	c := newCalibrator()
	want := c.check
	if c.drops == 0 || len(c.flows) == 0 {
		t.Fatalf("chunk dropped %d packets over %d flows, want both above 0", c.drops, len(c.flows))
	}
	if allocs := testing.AllocsPerRun(5, func() { c.chunk() }); allocs != 0 && !raceEnabled {
		t.Errorf("chunk allocates %v objects, want 0", allocs)
	}
	if c.check != want {
		t.Errorf("chunk outcome %x, first chunk %x", c.check, want)
	}
}

// TestChaseCycle checks that the chase table is one cycle through every
// slot, so that a chunk's chase never loops within the caches.
func TestChaseCycle(t *testing.T) {
	b := chaseCycle()
	p, n := uint32(0), 0
	for {
		p = binary.LittleEndian.Uint32(b[4*p:])
		n++
		if p == 0 || n > calSlots {
			break
		}
	}
	if n != calSlots {
		t.Errorf("cycle through slot 0 has %d slots, want %d", n, calSlots)
	}
}
