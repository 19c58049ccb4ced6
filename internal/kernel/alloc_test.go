package kernel

import (
	"testing"

	"livelock/internal/sim"
	"livelock/internal/workload"
)

// Once a router has warmed up — pool slabs created, task queues and
// the event heap grown to their working size — forwarding a packet
// must not allocate: every per-packet loop keeps its in-flight state in
// a struct and posts continuations bound once at construction. The
// 10 ms runs each carry about 50 packets.
func TestAllocsSteadyStatePerPacket(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		rate float64
	}{
		{"polled-q5", Config{Mode: ModePolled, Quota: 5}, 5000},
		{"polled-screend-feedback", Config{Mode: ModePolled, Quota: 5, Screend: true, Feedback: true}, 5000},
		{"polled-user-cyclelimit", Config{Mode: ModePolled, Quota: 5, UserProcess: true, CycleLimitThreshold: 0.5}, 5000},
		{"unmodified", Config{Mode: ModeUnmodified}, 5000},
		{"unmodified-screend-overload", Config{Mode: ModeUnmodified, Screend: true}, 9000},
		{"polled-smp4", Config{Mode: ModePolled, Quota: 5, CPUs: 4}, 5000},
		{"unmodified-smp2-screend", Config{Mode: ModeUnmodified, Screend: true, CPUs: 2}, 6000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			r := NewRouter(eng, tc.cfg)
			gen := r.AttachGenerator(0, workload.ConstantRate{Rate: tc.rate, JitterFrac: 0.05}, 0)
			gen.Start()
			eng.Run(sim.Time(300 * sim.Millisecond))
			before := r.Delivered()
			allocs := testing.AllocsPerRun(20, func() { eng.RunFor(10 * sim.Millisecond) })
			if allocs != 0 {
				t.Fatalf("%v allocations per 10 ms of steady-state forwarding, want 0", allocs)
			}
			if tc.name != "unmodified-screend-overload" && r.Delivered() == before {
				t.Fatal("router forwarded nothing during the measured runs")
			}
		})
	}
}
