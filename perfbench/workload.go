package main

import (
	"fmt"
	"sort"

	"livelock/internal/fault"
	"livelock/internal/kernel"
	"livelock/internal/nic"
	"livelock/internal/sim"
)

// tcpArm selects the closed-loop bulk transfer a hostile-tcp trial runs
// in place of the open-loop generator.
type tcpArm struct {
	Variant kernel.TCPVariant
	SACK    bool // receiver reports SACK blocks
	Reseq   bool // receiver resequences out-of-order arrivals
}

// trialSpec is one simulation a workload runs: a kernel configuration
// and either an offered rate (open loop) or a TCP transfer (closed
// loop). Cfg.Seed is already derived from the workload seed.
type trialSpec struct {
	Index int
	Arm   string // kernel arm, the suffix of kernel.ns_per_pkt.<arm>
	Label string
	Cfg   kernel.Config
	Rate  float64 // offered pkts/s; unused when TCP is set
	TCP   *tcpArm
	Figs  []string // paper figures that plot this point (paper-up)
}

// workloadDef fixes a workload's trial list and per-trial phases. The
// measure window runs as Slices fixed simulated-time RunFor slices, in
// traced and untraced runs alike, so the program traced is the program
// measured.
type workloadDef struct {
	Name   string
	Warmup sim.Duration
	Slice  sim.Duration
	Slices int
	Drain  sim.Duration
	trials func(seed uint64) []trialSpec
}

func (w workloadDef) measure() sim.Duration { return w.Slice * sim.Duration(w.Slices) }

var workloads = []workloadDef{
	{Name: "paper-up", Warmup: 100 * sim.Millisecond, Slice: 100 * sim.Millisecond, Slices: 3,
		Drain: 200 * sim.Millisecond, trials: paperUpTrials},
	{Name: "smp-scale", Warmup: 100 * sim.Millisecond, Slice: 100 * sim.Millisecond, Slices: 3,
		Drain: 200 * sim.Millisecond, trials: smpScaleTrials},
	{Name: "hostile-tcp", Warmup: 100 * sim.Millisecond, Slice: 100 * sim.Millisecond, Slices: 3,
		Drain: 200 * sim.Millisecond, trials: hostileTCPTrials},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// trialSeed derives trial i's simulation seed from the workload seed
// (splitmix64), so one --seed fixes every trial's inputs and distinct
// trials draw independent streams. Zero is remapped because
// kernel.Config treats it as "use the default".
func trialSeed(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// The paper-up axes and configurations mirror internal/experiment's
// figures 6-1, 6-3..6-6 and 7-1 (their specs and default rate axes).
var (
	throughputRates = []float64{250, 500, 1000, 1500, 2000, 2500, 3000, 3500, 4000,
		4500, 5000, 5500, 6000, 7000, 8000, 9000, 10000, 11000, 12000}
	userCPURates = []float64{0, 500, 1000, 1500, 2000, 2500, 3000, 3500, 4000,
		5000, 6000, 7000, 8000, 9000, 10000}
)

type paperSeries struct {
	fig, arm string
	cfg      kernel.Config
	rates    []float64
}

func paperSeriesList() []paperSeries {
	un := kernel.Config{Mode: kernel.ModeUnmodified}
	unScr := kernel.Config{Mode: kernel.ModeUnmodified, Screend: true}
	polled := func(q int, screend, fb bool) kernel.Config {
		return kernel.Config{Mode: kernel.ModePolled, Quota: q, Screend: screend, Feedback: fb}
	}
	var s []paperSeries
	add := func(fig, arm string, cfg kernel.Config, rates []float64) {
		s = append(s, paperSeries{fig, arm, cfg, rates})
	}
	tr := throughputRates
	add("6-1", "unmodified", un, tr)
	add("6-1", "unmodified_screend", unScr, tr)
	add("6-3", "unmodified", un, tr)
	add("6-3", "polled_compat", kernel.Config{Mode: kernel.ModePolledCompat}, tr)
	add("6-3", "polled", polled(5, false, false), tr)
	add("6-3", "polled", polled(-1, false, false), tr)
	add("6-4", "unmodified_screend", unScr, tr)
	add("6-4", "polled_screend", polled(10, true, false), tr)
	add("6-4", "polled_screend_fb", polled(10, true, true), tr)
	for _, q := range []int{5, 10, 20, 100, -1} {
		add("6-5", "polled", polled(q, false, false), tr)
	}
	for _, q := range []int{5, 10, 20, 100, -1} {
		add("6-6", "polled_screend_fb", polled(q, true, true), tr)
	}
	for _, th := range []float64{0.25, 0.50, 0.75, 1.00} {
		cfg := polled(5, false, false)
		cfg.UserProcess = true
		cfg.CycleLimitThreshold = th
		add("7-1", "polled_user", cfg, userCPURates)
	}
	return s
}

// paperUpTrials returns every unique (kernel config, offered rate)
// point of the paper's figures, in first-appearance order, each tagged
// with all the figures that plot it.
func paperUpTrials(seed uint64) []trialSpec {
	type key struct {
		cfg  kernel.Config
		rate float64
	}
	index := map[key]int{}
	var out []trialSpec
	for _, s := range paperSeriesList() {
		for _, rate := range s.rates {
			k := key{s.cfg, rate}
			if i, ok := index[k]; ok {
				if figs := out[i].Figs; figs[len(figs)-1] != s.fig {
					out[i].Figs = append(figs, s.fig)
				}
				continue
			}
			index[k] = len(out)
			out = append(out, trialSpec{
				Arm:   s.arm,
				Label: fmt.Sprintf("%s %s", describe(s.cfg), rateLabel(rate)),
				Cfg:   s.cfg,
				Rate:  rate,
				Figs:  []string{s.fig},
			})
		}
	}
	return finish(out, seed)
}

// smpScaleTrials runs the S-1/S-2 configurations at fixed offered rates
// across core counts.
func smpScaleTrials(seed uint64) []trialSpec {
	fb := kernel.Config{Mode: kernel.ModePolled, Quota: 10, Screend: true, Feedback: true}
	fbIRQ := fb
	fbIRQ.IRQCPUs = 1
	arms := []struct {
		arm string
		cfg kernel.Config
	}{
		{"smp_unmodified_screend", kernel.Config{Mode: kernel.ModeUnmodified, Screend: true}},
		{"smp_polled", kernel.Config{Mode: kernel.ModePolled, Quota: 10}},
		{"smp_polled_screend_fb", fb},
		{"smp_polled_screend_fb_irq1", fbIRQ},
	}
	var out []trialSpec
	for _, a := range arms {
		for _, cores := range []int{2, 4, 8} {
			for _, rate := range []float64{4000, 8000, 12000, 14880} {
				cfg := a.cfg
				cfg.CPUs = cores
				out = append(out, trialSpec{
					Arm:   a.arm,
					Label: fmt.Sprintf("%s cpus=%d %s", describe(cfg), cores, rateLabel(rate)),
					Cfg:   cfg,
					Rate:  rate,
				})
			}
		}
	}
	return finish(out, seed)
}

// hostile-tcp fixes the T-1/T-2 transfer parameters (internal/experiment
// tcp.go) except the wire loss, which is 2 per mille here.
const (
	tcpPort       = 8080
	tcpMSS        = 512
	tcpMaxCwnd    = 16
	tcpRTO        = 50 * sim.Millisecond
	tcpReseqHold  = 8 * sim.Millisecond
	tcpLossPM     = 2
	tcpReorderSpn = 4
	tcpFlush      = 8 * sim.Millisecond
	samplerPeriod = sim.Millisecond
)

func hostileTCPTrials(seed uint64) []trialSpec {
	arms := []struct {
		arm string
		tcp tcpArm
	}{
		{"tcp_reno", tcpArm{Variant: kernel.VariantReno}},
		{"tcp_newreno", tcpArm{Variant: kernel.VariantNewReno}},
		{"tcp_sack", tcpArm{Variant: kernel.VariantSACK, SACK: true}},
		{"tcp_sack_reseq", tcpArm{Variant: kernel.VariantSACK, SACK: true, Reseq: true}},
	}
	coalesce := []nic.CoalesceConfig{
		{},
		{Policy: nic.CoalesceCount, CountThresh: 8, TimerThresh: 5 * sim.Millisecond},
		{Policy: nic.CoalesceTimer, TimerThresh: 2 * sim.Millisecond},
		{Policy: nic.CoalesceAdaptive, CountThresh: 8, TimerThresh: 5 * sim.Millisecond},
	}
	var out []trialSpec
	for _, a := range arms {
		for _, co := range coalesce {
			for _, pm := range []float64{0, 20, 100} {
				cfg := kernel.Config{Mode: kernel.ModePolled, Quota: 5}
				cfg.NIC.Coalesce = co
				cfg.Fault = fault.Config{
					DropProb:     tcpLossPM / 1000.0,
					ReorderProb:  pm / 1000,
					ReorderSpan:  tcpReorderSpn,
					ReorderMode:  fault.ReorderDisplace,
					ReorderFlush: tcpFlush,
				}
				tcp := a.tcp
				out = append(out, trialSpec{
					Arm:   a.arm,
					Label: fmt.Sprintf("%s coalesce=%s reorder=%gpm", a.arm, co.Policy, pm),
					Cfg:   cfg,
					TCP:   &tcp,
				})
			}
		}
	}
	return finish(out, seed)
}

func finish(out []trialSpec, seed uint64) []trialSpec {
	for i := range out {
		out[i].Index = i
		out[i].Cfg.Seed = trialSeed(seed, i)
	}
	return out
}

func describe(cfg kernel.Config) string {
	s := cfg.Mode.String()
	if cfg.Mode == kernel.ModePolled {
		if cfg.Quota > 0 {
			s += fmt.Sprintf(" q%d", cfg.Quota)
		} else {
			s += " qinf"
		}
	}
	if cfg.Screend {
		s += " screend"
	}
	if cfg.Feedback {
		s += " fb"
	}
	if cfg.IRQCPUs > 0 {
		s += fmt.Sprintf(" irq%d", cfg.IRQCPUs)
	}
	if cfg.UserProcess {
		s += fmt.Sprintf(" user th=%g", cfg.CycleLimitThreshold)
	}
	return s
}

func rateLabel(r float64) string { return fmt.Sprintf("%gpps", r) }

// allArms returns the sorted kernel arm names of every workload: each
// becomes a kernel.ns_per_pkt.<arm> metric.
func allArms() []string {
	seen := map[string]bool{}
	for _, w := range workloads {
		for _, t := range w.trials(1) {
			seen[t.Arm] = true
		}
	}
	var out []string
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}
