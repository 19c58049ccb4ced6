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
	index int    // heap slot while queued, kept current by every sift
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

// heapNode is one entry of the event queue. The ordering key (when,
// seq) is stored inline so sift comparisons never chase the Event
// pointer.
type heapNode struct {
	when Time
	seq  uint64 // FIFO tie-break for events at the same instant
	ev   *Event
}

// nodeBefore orders heap nodes by (when, seq).
func nodeBefore(a, b heapNode) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
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
// recycled through a free list, the priority queue is a 4-ary heap of
// inline (when, seq) keys, and cancellation is eager — each Event
// records its heap slot, so Cancel removes the node in O(log n) and
// recycles the Event at once, and the heap holds only live events.
// None of this changes observable order: events fire strictly by
// (when, seq), with seq assigned in scheduling order, exactly as the
// original binary heap fired them.
type Engine struct {
	now     Time
	heap    []heapNode
	seq     uint64
	stopped bool
	fired   uint64
	free    *Event // recycled Events ready for reuse

	tie     TieBreaker
	tieBuf  []heapNode // scratch: popped tied nodes, in (when, seq) order
	tieList []Tie      // scratch: the view handed to the TieBreaker
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
	e.heapPush(heapNode{when: t, seq: e.seq, ev: ev})
	e.seq++
	return Handle{ev: ev, gen: ev.gen}
}

// AfterCall schedules fn(a, b) to run d after the current instant. See
// AtCall.
func (e *Engine) AfterCall(d Duration, fn Callback, a, b any) Handle {
	return e.AtCall(e.now.Add(d), fn, a, b)
}

// Cancel removes a pending event. Cancelling a fired, already-cancelled
// or zero handle is a no-op, so callers can unconditionally cancel
// stored handles. The event's heap node is removed at once, by its
// recorded slot, and the Event goes straight back to the free list.
func (e *Engine) Cancel(h Handle) {
	ev := h.ev
	if ev == nil || ev.gen != h.gen {
		return
	}
	e.heapRemove(ev.index)
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

// breakTie gathers every pending event tied at first's instant and lets
// the installed TieBreaker choose which fires; the others are pushed
// back with their original (when, seq) keys, so their relative FIFO
// order is preserved for the next tie decision. While the TieBreaker
// runs, the tied nodes sit in tieBuf rather than the heap; Pending
// counts them there.
func (e *Engine) breakTie(first heapNode) heapNode {
	when := first.when
	e.tieBuf = append(e.tieBuf[:0], first)
	for len(e.heap) > 0 && e.heap[0].when == when {
		e.tieBuf = append(e.tieBuf, e.heapPop())
	}
	chosen := first
	if len(e.tieBuf) > 1 {
		e.tieList = e.tieList[:0]
		for _, n := range e.tieBuf {
			e.tieList = append(e.tieList, Tie{Seq: n.seq, Fn: n.ev.fn, Arg: n.ev.a})
		}
		pick := e.tie(when, e.tieList)
		if pick < 0 || pick >= len(e.tieBuf) {
			panic(fmt.Sprintf("sim: tie-breaker chose %d of %d tied events", pick, len(e.tieBuf)))
		}
		chosen = e.tieBuf[pick]
		for i, n := range e.tieBuf {
			if i != pick {
				e.heapPush(n)
			}
		}
		for i := range e.tieList {
			e.tieList[i] = Tie{}
		}
	}
	for i := range e.tieBuf {
		e.tieBuf[i] = heapNode{}
	}
	e.tieBuf = e.tieBuf[:0]
	return chosen
}

// Step fires the next pending event. It reports false if no events
// remain.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	n := e.heapPop()
	if e.tie != nil {
		n = e.breakTie(n)
	}
	e.now = n.when
	e.fire(n.ev)
	return true
}

// Run fires events in order until the clock would pass `until`, then sets
// the clock to exactly `until`. Events scheduled at `until` itself are
// fired. Run returns the number of events fired.
//
// The loop inspects the heap root in place and pops at most once per
// fired event: the former peek-then-pop pair (each descending the heap)
// is now a single traversal.
func (e *Engine) Run(until Time) uint64 {
	start := e.fired
	e.stopped = false
	for !e.stopped && len(e.heap) > 0 && e.heap[0].when <= until {
		n := e.heapPop()
		if e.tie != nil {
			n = e.breakTie(n)
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

// Pending returns the number of queued events: the heap, plus any tied
// events a TieBreaker is currently choosing among.
func (e *Engine) Pending() int { return len(e.heap) + len(e.tieBuf) }

// VisitPending calls visit for every pending (not fired, not cancelled)
// event, in unspecified order. Exploration harnesses use this to
// fingerprint the scheduler's forward-relevant state; callers needing a
// canonical order must sort what they collect. visit must not schedule
// or cancel events.
func (e *Engine) VisitPending(visit func(when Time, fn Callback, a, b any)) {
	for i := range e.heap {
		ev := e.heap[i].ev
		visit(ev.when, ev.fn, ev.a, ev.b)
	}
}

// --- 4-ary heap keyed by (when, seq) ---
//
// A 4-ary heap halves the tree depth of a binary heap, trading slightly
// more comparisons per level for far fewer cache lines touched per
// sift; with 24-byte inline nodes, four children share two cache lines.
// Sifts move the hole rather than swapping, so each level costs one
// copy instead of three, plus one store of the slot into the moved
// node's Event.

func (e *Engine) heapPush(n heapNode) {
	e.heap = append(e.heap, n)
	e.siftUp(len(e.heap)-1, n)
}

// heapPop removes and returns the root. The caller must ensure the heap
// is non-empty.
func (e *Engine) heapPop() heapNode { return e.heapRemove(0) }

// heapRemove removes and returns the node at slot i, refilling the
// hole with the last node and sifting that node whichever way restores
// the heap order.
func (e *Engine) heapRemove(i int) heapNode {
	h := e.heap
	removed := h[i]
	last := len(h) - 1
	n := h[last]
	h[last] = heapNode{}
	e.heap = h[:last]
	if i < last {
		if i > 0 && nodeBefore(n, h[(i-1)/4]) {
			e.siftUp(i, n)
		} else {
			e.siftDown(i, n)
		}
	}
	return removed
}

// siftUp places n at slot i or above, moving larger parents down into
// the hole as it climbs.
func (e *Engine) siftUp(i int, n heapNode) {
	h := e.heap
	for i > 0 {
		parent := (i - 1) / 4
		if !nodeBefore(n, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].ev.index = i
		i = parent
	}
	h[i] = n
	n.ev.index = i
}

// siftDown places n into the subtree rooted at i, moving smaller
// children up into the hole as it descends.
func (e *Engine) siftDown(i int, n heapNode) {
	h := e.heap
	sz := len(h)
	for {
		first := 4*i + 1
		if first >= sz {
			break
		}
		best := first
		limit := first + 4
		if limit > sz {
			limit = sz
		}
		for j := first + 1; j < limit; j++ {
			if nodeBefore(h[j], h[best]) {
				best = j
			}
		}
		if !nodeBefore(h[best], n) {
			break
		}
		h[i] = h[best]
		h[i].ev.index = i
		i = best
	}
	h[i] = n
	n.ev.index = i
}
