// Command perfbench measures the host cost of the livelock simulator,
// end to end and layer by layer, on three workloads (see README.md).
//
//	bash perfbench/run.sh --workload paper-up --seed 1 --seconds 20 --trace 0
//
// It drives the simulator from outside through the public functions of
// internal/kernel, internal/sim and the layer packages, one trial at a
// time from one goroutine, checks every simulated result, and prints
// every metric with its unit; the last line is one JSON object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// goldenSeed is the seed whose per-trial digests are recorded under
// golden/. Every run replays it first, untimed, as its warm-up, so each
// run checks the recorded simulated results whatever --seed it is given.
const goldenSeed = 1

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-up, smp-scale or hostile-tcp")
	seed := fs.Uint64("seed", goldenSeed, "workload seed; every trial's inputs derive from it")
	seconds := fs.Int("seconds", 20, "host seconds of measured passes")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics and writing the span file to .bench_build/perfbench/trace-<workload>-<seed>.json")
	record := fs.Bool("record", false, "record the seed's per-trial digests under perfbench/golden instead of measuring")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *record {
		return recordGolden(w, *seed, stdout)
	}
	// One P: the trial loop is one goroutine, so the collector runs on
	// that P and its work lands in the CPU time measured (cpuNow). With
	// a second P it would run on an otherwise idle core, and on a host
	// that steals CPU every stop-the-world handoff between the two
	// would stall.
	runtime.GOMAXPROCS(1)
	golden, err := loadGolden(w.Name)
	if err != nil {
		return err
	}
	if len(golden[goldenSeed]) == 0 {
		return fmt.Errorf("no recorded digests for %s seed %d", w.Name, goldenSeed)
	}

	var (
		attempted, failed int
		firstErr          error
	)
	// check counts a pass's failed trials: a panic, a failed audit, or
	// a digest that differs from the reference (recorded, or the run's
	// first pass of the same seed).
	check := func(p passResult, want []uint64) {
		for i, err := range p.Errs {
			attempted++
			if err == nil && want != nil && (i >= len(want) || p.Digests[i] != want[i]) {
				err = fmt.Errorf("trial %d: result digest %016x differs from the reference", i, p.Digests[i])
			}
			if err != nil {
				failed++
				if firstErr == nil {
					firstErr = err
				}
			}
		}
	}

	// Warm-up: the recorded seed, untimed. It hoists every lazy
	// one-time setup out of the timed passes and checks the digests.
	warm := runPass(w, w.trials(goldenSeed), nil, plainPass, nil)
	check(warm, golden[goldenSeed])

	trials := w.trials(*seed)
	ref := golden[*seed]
	var cal *calibrator
	pass := func(tr *tracer, mode passMode) passResult {
		p := runPass(w, trials, tr, mode, cal)
		if ref == nil {
			ref = p.Digests
		}
		check(p, ref)
		return p
	}
	// The allocation counts come from an untimed pass with collections
	// at fixed points, so they repeat exactly (runPass).
	allocs := pass(nil, allocPass)
	// Made after the allocation pass, so its tables stay out of the
	// peak heap measured there.
	cal = newCalibrator()
	runtime.GC()

	var (
		metrics map[string]float64
		specs   []metricSpec
	)
	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	var first passResult
	if *trace == 0 {
		var passes []passResult
		for len(passes) < 3 || time.Now().Before(deadline) {
			passes = append(passes, pass(nil, timedPass))
		}
		first = passes[0]
		metrics = endToEnd(passes, allocs)
		specs = endToEndSpecs
		fmt.Fprintf(stdout, "passes %d; calibration chunk median %.4g ms, reference %.4g ms\n",
			len(passes), medianCal(passes)/1e6, calRefNs/1e6)
	} else {
		var untraced, traced []passResult
		var spans *tracer
		for len(traced) < 2 || time.Now().Before(deadline) {
			untraced = append(untraced, pass(nil, plainPass))
			tr := newTracer()
			traced = append(traced, pass(tr, plainPass))
			if spans == nil {
				spans = tr
			}
		}
		first = traced[0]
		spans.tid = 2
		rp := runReplays(ratio(float64(first.C.PendingSum), float64(first.C.PendingN)), payloadOf(w), spans)
		for _, r := range rp.all() {
			if r.Err != nil {
				failed++
				attempted++
				if firstErr == nil {
					firstErr = r.Err
				}
			}
		}
		metrics = perLayer(traced, untraced, allocs, rp, ratio(float64(failed), float64(attempted)), cal.chunkMs(50))
		specs = perLayerSpecs()
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-%d.json", w.Name, *seed))
		if err := writeTrace(spans, path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "passes %d untraced + %d traced; spans written to %s\n", len(untraced), len(traced), path)
	}

	n := len(trials)
	fmt.Fprintf(stdout, "workload %s seed %d: %d trials per pass, tail percentile p%d; warm-up seed %d\n",
		w.Name, *seed, n, tailPercentile(n), goldenSeed)
	fmt.Fprintf(stdout, "result digest %016x\n", combine(first.Digests))
	if firstErr != nil {
		fmt.Fprintln(stdout, "first failure:", firstErr)
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v := metrics[s.Name]
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
		fmt.Fprintf(stdout, "%-36s %16.6g %s\n", s.Name, v, s.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// payloadOf is the UDP payload size of the workload's frames, which the
// frame-shaped replays copy.
func payloadOf(w workloadDef) int {
	if w.Name == "hostile-tcp" {
		return tcpMSS
	}
	return 4
}

// combine folds per-trial digests into one workload digest.
func combine(ds []uint64) uint64 {
	d := newDigest()
	d.u64(ds...)
	return d.sum()
}

func writeTrace(tr *tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// recordGolden runs one pass of seed and rewrites the workload's golden
// file with its per-trial digests, keeping other seeds' entries. It
// refuses to record a pass with a failed trial.
func recordGolden(w workloadDef, seed uint64, stdout io.Writer) error {
	golden, err := loadGolden(w.Name)
	if err != nil {
		return err
	}
	trials := w.trials(seed)
	p := runPass(w, trials, nil, plainPass, nil)
	if err := errors.Join(p.Errs...); err != nil {
		return err
	}
	golden[seed] = p.Digests
	path := filepath.Join("perfbench", "golden", w.Name+".txt")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fmt.Fprintln(f, goldenHeader)
	seeds := make([]uint64, 0, len(golden))
	for s := range golden {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, s := range seeds {
		labels := w.trials(s)
		for i, d := range golden[s] {
			fmt.Fprintf(f, "%d %d %016x %s\n", s, i, d, labels[i].Label)
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %d digests of %s seed %d in %s (digest %016x)\n",
		len(p.Digests), w.Name, seed, path, combine(p.Digests))
	return nil
}
