package sim

import "fmt"

// Callback is the closure-free event function signature: a top-level
// function plus up to two receiver/argument values. Storing pointers
// (or other pointer-shaped values such as funcs) in the any slots does
// not allocate, so hot schedulers that use AtCall/AfterCall with a
// package-level function schedule without producing any garbage.
type Callback func(a, b any)

// Event is a pooled scheduler entry. Events are owned by the engine's
// free list and recycled the moment they fire or are cancelled; user
// code never holds an *Event directly — it holds a generation-checked
// Handle, which stays safe (Pending reports false, Cancel is a no-op)
// even after the underlying Event has been reused for a later
// scheduling.
type Event struct {
	when  Time
	gen   uint64 // bumped on every recycle; Handles pin the value
	index int    // queue slot while queued, kept current by every shift
	fn    Callback
	a, b  any
	next  *Event // free-list link
}

// Handle identifies a scheduled event. The zero Handle is valid and
// refers to no event: Pending reports false and Cancel is a no-op, so
// callers can store handles unconditionally without nil checks.
type Handle struct {
	ev  *Event
	gen uint64
}

// Pending reports whether the event is still queued (not yet fired and
// not cancelled). Firing and cancelling both recycle the Event, so a
// handle is pending exactly while its generation is current.
func (h Handle) Pending() bool {
	return h.ev != nil && h.ev.gen == h.gen
}

// When returns the instant the event is scheduled to fire, or zero if
// the handle is no longer pending.
func (h Handle) When() Time {
	if !h.Pending() {
		return 0
	}
	return h.ev.when
}

// node is one entry of the event queue. The ordering key (when, seq)
// is stored inline so the insertion scan never chases the Event
// pointer.
type node struct {
	when Time
	seq  uint64 // FIFO tie-break for events at the same instant
	ev   *Event
}

// Tie describes one of several pending events due at the same instant,
// offered to an installed TieBreaker. Rank within the tie set follows
// scheduling order: ties[0] is the event FIFO would fire.
type Tie struct {
	// Seq is the event's scheduling sequence number (FIFO order).
	Seq uint64
	// Fn is the event's callback; exploration harnesses resolve it to a
	// stable function name for labelling schedule choices.
	Fn Callback
	// Arg is the event's first operand (typically the receiver), used to
	// distinguish instances sharing a callback function.
	Arg any
}

// TieBreaker chooses which of the tied same-instant events fires next,
// returning an index into ties. Returning 0 reproduces the engine's
// default FIFO order. The ties slice is reused between calls and must
// not be retained, and the TieBreaker must not schedule or cancel
// events. Installed only by schedule-exploration harnesses;
// normal runs leave it nil and pay nothing beyond one nil check per
// fired event.
type TieBreaker func(now Time, ties []Tie) int

// Engine is a discrete-event simulator. It is not safe for concurrent
// use; a simulation is a single-threaded, deterministic computation.
//
// The scheduler hot path is allocation-free at steady state: Events are
// recycled through a free list, and the event queue is a single slice
// of inline (when, seq) keys kept sorted earliest first. The live
// region is q[lo:]; the slots before lo are a gap that pops leave
// behind. A pop takes q[lo] and advances lo, with no comparison. An
// insert checks the front, else scans back from the latest end for its
// slot, then shifts whichever side of the slot is shorter by one: the
// front part down into the gap, or the tail up. CPU completions land
// near the front and retransmit timers near the back, so both shifts
// stay short. Each
// Event records its slot, so Cancel removes the node at once and
// recycles the Event. The queue is shallow in every configuration the
// simulator runs (the widest figure peaks at about 130 pending events),
// which is why a linear structure beats a heap here; BenchmarkEngineDepth
// measures where that stops being true. None of this changes
// observable order: events fire strictly by (when, seq), with seq
// assigned in scheduling order, exactly as the original binary heap
// fired them.
type Engine struct {
	now     Time
	q       []node // q[lo:] is the queue; every slot outside it is zero
	lo      int
	seq     uint64
	stopped bool
	fired   uint64
	free    *Event // recycled Events ready for reuse

	tie     TieBreaker
	tieList []Tie // scratch: the view handed to the TieBreaker
	tied    int   // nodes at the front offered to a running TieBreaker
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// SetTieBreaker installs tb as the same-instant tie-break hook; nil
// restores default FIFO order. See TieBreaker.
func (e *Engine) SetTieBreaker(tb TieBreaker) { e.tie = tb }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// runClosure adapts the closure-based At/After API onto the pooled
// callback representation. Func values are pointer-shaped, so stashing
// one in the event's any slot does not allocate.
func runClosure(a, _ any) { a.(func())() }

// At schedules fn to run at instant t. Scheduling in the past panics:
// a discrete-event simulation must never move the clock backwards, and a
// past timestamp always indicates a bug in the caller.
func (e *Engine) At(t Time, fn func()) Handle {
	if fn == nil {
		panic("sim: nil event function")
	}
	return e.AtCall(t, runClosure, fn, nil)
}

// After schedules fn to run d after the current instant. Negative d
// panics, as with At.
func (e *Engine) After(d Duration, fn func()) Handle {
	return e.At(e.now.Add(d), fn)
}

// AtCall schedules fn(a, b) to run at instant t. Unlike At it takes a
// plain function plus its arguments rather than a closure, so hot
// schedulers pass a package-level function and their receiver pointer
// and the call allocates nothing. Scheduling in the past or with a nil
// fn panics.
func (e *Engine) AtCall(t Time, fn Callback, a, b any) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v, before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.next = nil
	} else {
		ev = &Event{}
	}
	ev.when = t
	ev.fn = fn
	ev.a, ev.b = a, b
	n := node{when: t, seq: e.seq, ev: ev}
	e.seq++
	// n carries the largest seq yet, so its slot is behind every node
	// due no later than t. Most events land at one end — CPU
	// completions in front of everything, timers behind — so n is first
	// compared with the earliest node, then the slot is found by a scan
	// back from the latest end.
	q := e.q
	i := len(q)
	if i > e.lo && t < q[e.lo].when {
		i = e.lo
	}
	for i > e.lo && q[i-1].when > t {
		i--
	}
	// Shift the shorter side of the slot by one: the front part q[lo:i]
	// down into the gap, or the tail q[i:] up into the free space at
	// the back. Both loops are empty for an insert at either end.
	if lo := e.lo; lo > 0 && i-lo <= len(q)-i {
		for j := lo; j < i; j++ {
			q[j-1] = q[j]
			q[j-1].ev.index = j - 1
		}
		q[i-1] = n
		ev.index = i - 1
		e.lo = lo - 1
		return Handle{ev: ev, gen: ev.gen}
	}
	if len(q) == cap(q) {
		i -= e.lo
		q = e.makeRoom()
	}
	q = q[:len(q)+1]
	for j := len(q) - 1; j > i; j-- {
		q[j] = q[j-1]
		q[j].ev.index = j
	}
	q[i] = n
	ev.index = i
	e.q = q
	return Handle{ev: ev, gen: ev.gen}
}

// AfterCall schedules fn(a, b) to run d after the current instant. See
// AtCall.
func (e *Engine) AfterCall(d Duration, fn Callback, a, b any) Handle {
	return e.AtCall(e.now.Add(d), fn, a, b)
}

// Cancel removes a pending event. Cancelling a fired, already-cancelled
// or zero handle is a no-op, so callers can unconditionally cancel
// stored handles. The event's node is removed at once, by its recorded
// slot, and the Event goes straight back to the free list.
func (e *Engine) Cancel(h Handle) {
	ev := h.ev
	if ev == nil || ev.gen != h.gen {
		return
	}
	e.remove(ev.index)
	e.recycle(ev)
}

// fire recycles ev and runs its callback. The Event returns to the free
// list before the callback executes, so a callback that immediately
// schedules reuses the very Event that just fired — steady-state
// simulation cycles a single Event per timer chain.
func (e *Engine) fire(ev *Event) {
	fn, a, b := ev.fn, ev.a, ev.b
	e.recycle(ev)
	e.fired++
	fn(a, b)
}

// recycle returns ev to the free list, bumping its generation so stale
// Handles can never observe (or cancel) a later occupant.
func (e *Engine) recycle(ev *Event) {
	ev.gen++
	ev.fn, ev.a, ev.b = nil, nil, nil
	ev.next = e.free
	e.free = ev
}

// breakTie lets the installed TieBreaker choose among the pending
// events tied at the earliest instant, then removes the chosen one from
// the queue and returns it. Tied nodes sit together at the front of the
// sorted queue in seq order, so they are offered in place, and the
// ones not chosen keep their (when, seq) order for the next decision.
// The queue must be non-empty.
func (e *Engine) breakTie() node {
	q, lo := e.q, e.lo
	when := q[lo].when
	end := lo + 1
	for end < len(q) && q[end].when == when {
		end++
	}
	pick := lo
	if end-lo > 1 {
		e.tieList = e.tieList[:0]
		for _, n := range q[lo:end] {
			e.tieList = append(e.tieList, Tie{Seq: n.seq, Fn: n.ev.fn, Arg: n.ev.a})
		}
		e.tied = end - lo
		p := e.tie(when, e.tieList)
		e.tied = 0
		if p < 0 || p >= end-lo {
			panic(fmt.Sprintf("sim: tie-breaker chose %d of %d tied events", p, end-lo))
		}
		clear(e.tieList)
		pick += p
	}
	n := q[pick]
	e.remove(pick)
	return n
}

// Step fires the next pending event. It reports false if no events
// remain.
func (e *Engine) Step() bool {
	if e.lo == len(e.q) {
		return false
	}
	var n node
	if e.tie != nil {
		n = e.breakTie()
	} else {
		n = e.pop()
	}
	e.now = n.when
	e.fire(n.ev)
	return true
}

// Run fires events in order until the clock would pass `until`, then sets
// the clock to exactly `until`. Events scheduled at `until` itself are
// fired. Run returns the number of events fired.
func (e *Engine) Run(until Time) uint64 {
	start := e.fired
	e.stopped = false
	for !e.stopped && e.lo < len(e.q) && e.q[e.lo].when <= until {
		var n node
		if e.tie != nil {
			n = e.breakTie()
		} else {
			n = e.pop()
		}
		e.now = n.when
		e.fire(n.ev)
	}
	if e.now < until {
		e.now = until
	}
	return e.fired - start
}

// RunFor advances the simulation by d. See Run.
func (e *Engine) RunFor(d Duration) uint64 { return e.Run(e.now.Add(d)) }

// Stop makes the innermost Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.q) - e.lo }

// VisitPending calls visit for every pending (not fired, not cancelled)
// event, in unspecified order. Exploration harnesses use this to
// fingerprint the scheduler's forward-relevant state; callers needing a
// canonical order must sort what they collect. visit must not schedule
// or cancel events. Called from inside a TieBreaker, it skips the tied
// events the TieBreaker is choosing among: they are described by its
// ties argument instead.
func (e *Engine) VisitPending(visit func(when Time, fn Callback, a, b any)) {
	for _, n := range e.q[e.lo+e.tied:] {
		visit(n.when, n.ev.fn, n.ev.a, n.ev.b)
	}
}

// --- sorted event deque keyed by (when, seq) ---
//
// Every operation keeps three facts true: q[lo:] is strictly increasing
// in (when, seq), each node's Event records the node's slot, and every
// slot outside q[lo:] is zero, so no recycled Event stays reachable
// from the queue. AtCall inserts in line and pop inlines into Run and
// Step, so a scheduled-and-fired event makes no call into the queue
// code unless the slice is full.

// pop removes and returns the earliest node. The queue must be
// non-empty.
func (e *Engine) pop() node {
	n := e.q[e.lo]
	e.q[e.lo] = node{}
	e.lo++
	return n
}

// makeRoom frees space at the back of a full queue and returns the
// queue, now starting at slot 0. A gap is reclaimed in place by sliding
// the live nodes down over it; the slice grows only when there is no
// gap, by append's own rule, so it grows exactly when the live count
// outgrows the capacity.
func (e *Engine) makeRoom() []node {
	live := e.q[e.lo:]
	var q []node
	if e.lo > 0 {
		q = e.q[:copy(e.q, live)]
		clear(e.q[len(q):])
	} else {
		q = append(live[:len(live):len(live)], node{})[:len(live)]
	}
	for j := range q {
		q[j].ev.index = j
	}
	e.q, e.lo = q, 0
	return q
}

// remove deletes the node at slot i, closing the hole from whichever
// side is shorter: the front part q[lo:i] moves up, or the tail moves
// down.
func (e *Engine) remove(i int) {
	q, lo := e.q, e.lo
	if i-lo < len(q)-1-i {
		for j := i; j > lo; j-- {
			q[j] = q[j-1]
			q[j].ev.index = j
		}
		q[lo] = node{}
		e.lo = lo + 1
		return
	}
	last := len(q) - 1
	for j := i; j < last; j++ {
		q[j] = q[j+1]
		q[j].ev.index = j
	}
	q[last] = node{}
	e.q = q[:last]
}
