package cpu

import (
	"testing"
	"testing/quick"

	"livelock/internal/prov"
	"livelock/internal/sim"
)

// TestSchedulingInvariants drives the CPU with randomized workloads and
// checks global invariants that must hold for any schedule:
//
//  1. conservation: busy time + idle time == elapsed time;
//  2. per-task accounting sums to busy time;
//  3. every posted item eventually completes when given enough time;
//  4. higher-priority total turnaround never suffers from lower-priority
//     load (priority isolation: the highest-priority task's completion
//     time is independent of other tasks).
func TestSchedulingInvariants(t *testing.T) {
	type postSpec struct {
		Task  uint8
		At    uint16 // µs
		Cost  uint16 // µs
		Count uint8
	}
	check := func(specs []postSpec) bool {
		eng := sim.NewEngine()
		c := New(eng)
		tasks := []*Task{
			c.NewTask("intr", IPLDevice, 0, ClassIntr),
			c.NewTask("soft", IPLSoft, 0, ClassSoft),
			c.NewTask("kernA", IPLThread, 5, ClassKernel),
			c.NewTask("kernB", IPLThread, 5, ClassKernel),
			c.NewTask("user", IPLThread, 1, ClassUser),
		}
		completed := 0
		want := 0
		var totalCost sim.Duration
		for _, sp := range specs {
			task := tasks[int(sp.Task)%len(tasks)]
			n := int(sp.Count%4) + 1
			cost := sim.Duration(sp.Cost%500) * sim.Microsecond
			at := sim.Time(sp.At) * sim.Time(sim.Microsecond)
			want += n
			totalCost += sim.Duration(n) * cost
			for i := 0; i < n; i++ {
				eng.At(at, func() {
					task.Post(cost, func() { completed++ })
				})
			}
		}
		// Far beyond the sum of all work.
		horizon := sim.Time(sim.Second)
		eng.Run(horizon)

		if completed != want {
			return false
		}
		if c.BusyTime() != totalCost {
			return false
		}
		var perTask sim.Duration
		for _, task := range tasks {
			perTask += task.Consumed()
		}
		if perTask != c.BusyTime() {
			return false
		}
		return c.BusyTime()+c.IdleTime() == sim.Duration(horizon)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPriorityIsolationProperty: the completion time of device-IPL work
// is unaffected by any amount of lower-priority load.
func TestPriorityIsolationProperty(t *testing.T) {
	type noise struct {
		At   uint16
		Cost uint16
	}
	run := func(noisy []noise) sim.Time {
		eng := sim.NewEngine()
		c := New(eng)
		intr := c.NewTask("intr", IPLDevice, 0, ClassIntr)
		low := c.NewTask("low", IPLThread, 0, ClassUser)
		for _, n := range noisy {
			at := sim.Time(n.At) * sim.Time(sim.Microsecond)
			cost := sim.Duration(n.Cost%200+1) * sim.Microsecond
			eng.At(at, func() { low.Post(cost, nil) })
		}
		var done sim.Time
		eng.At(sim.Time(10*sim.Millisecond), func() {
			intr.Post(100*sim.Microsecond, func() { done = eng.Now() })
		})
		eng.Run(sim.Time(sim.Second))
		return done
	}
	baseline := run(nil)
	check := func(noisy []noise) bool {
		return run(noisy) == baseline
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestWakeInvariant checks, after every engine step of randomized
// two-core runs, the invariant the O(1) wake in Task.Post rests on:
// while a CPU runs a task with interrupts enabled, no task on its
// ready list is higher than the running one. The workload generator is
// TestSchedulingInvariants', widened to the paths that can break the
// invariant: posts issued from inside commit fns, PostLocked items
// (which run with interrupts disabled and contend across cores), and
// SaveAndDisableInterrupts/RestoreInterrupts windows opened both from
// engine events and from inside commit fns.
func TestWakeInvariant(t *testing.T) {
	type postSpec struct {
		Task  uint8
		Next  uint8 // second task, for the kinds that post twice
		Kind  uint8
		At    uint16 // µs
		Cost  uint16 // µs
		Count uint8
	}
	check := func(specs []postSpec) bool {
		eng := sim.NewEngine()
		sys := NewSystem(eng, 2)
		lock := NewFairLock("l")
		var tasks []*Task
		for i := 0; i < sys.N(); i++ {
			c := sys.CPU(i)
			tasks = append(tasks,
				c.NewTask("intr", IPLDevice, 0, ClassIntr),
				c.NewTask("soft", IPLSoft, 0, ClassSoft),
				c.NewTask("kernA", IPLThread, 5, ClassKernel),
				c.NewTask("kernB", IPLThread, 5, ClassKernel),
				c.NewTask("user", IPLThread, 1, ClassUser),
			)
		}
		completed, want := 0, 0
		done := func() { completed++ }
		for _, sp := range specs {
			task := tasks[int(sp.Task)%len(tasks)]
			next := tasks[int(sp.Next)%len(tasks)]
			n := int(sp.Count%4) + 1
			cost := sim.Duration(sp.Cost%500) * sim.Microsecond
			at := sim.Time(sp.At) * sim.Time(sim.Microsecond)
			for i := 0; i < n; i++ {
				switch sp.Kind % 5 {
				case 0: // plain post from an engine event
					want++
					eng.At(at, func() { task.Post(cost, done) })
				case 1: // the commit fn posts the follow-up item
					want += 2
					eng.At(at, func() {
						task.Post(cost, func() {
							done()
							next.Post(cost/2, done)
						})
					})
				case 2: // critical section, interrupts disabled throughout
					want++
					eng.At(at, func() { task.PostLocked(lock, cost/4, prov.CenterIPInput, done) })
				case 3: // two posts inside an interrupt-disabled window
					want += 2
					eng.At(at, func() {
						c := task.cpu
						saved := c.SaveAndDisableInterrupts()
						next.Post(cost/3, done)
						task.Post(cost, done)
						c.RestoreInterrupts(saved)
					})
				case 4: // a commit fn opens the window and posts twice
					want += 3
					eng.At(at, func() {
						task.Post(cost, func() {
							done()
							c := next.cpu
							saved := c.SaveAndDisableInterrupts()
							task.Post(cost/3, done)
							next.Post(cost/2, done)
							c.RestoreInterrupts(saved)
						})
					})
				}
			}
		}
		for eng.Step() {
			for i := 0; i < sys.N(); i++ {
				c := sys.CPU(i)
				if c.cur == nil || !c.intEnabled {
					continue
				}
				for _, r := range c.ready {
					if higher(r, c.cur) {
						t.Logf("t=%v cpu%d: ready %s (ipl %v, prio %d) is higher than running %s (ipl %v, prio %d)",
							eng.Now(), i, r.name, r.ipl, r.prio, c.cur.name, c.cur.ipl, c.cur.prio)
						return false
					}
				}
			}
		}
		if completed != want {
			t.Logf("%d of %d items completed", completed, want)
			return false
		}
		if err := sys.AuditCycles(eng.Now()); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
