// Package a is the hotalloc violation/allowed fixture.
package a

import (
	"fmt"
	"io"

	"livelock/internal/cpu"
	"livelock/internal/prov"
	"livelock/internal/sim"
)

type node struct {
	eng *sim.Engine
	n   int
}

func tick(a, b any) {}

func (n *node) bump() {}

func schedule(nd *node, eng *sim.Engine) {
	eng.After(5, func() { nd.n++ }) // want `closure literal passed to Engine\.After`
	eng.At(10, nd.bump)             // want `bound method value passed to Engine\.At`

	eng.AfterCall(5, tick, nd, nil)                             // pooled path with pointer state: fine
	eng.AfterCall(5, func(a, b any) { a.(*node).n++ }, nd, nil) // capture-free literal: fine
	eng.AfterCall(5, func(a, b any) { nd.n++ }, nil, nil)       // want `callback literal captures nd`
	eng.AtCall(10, nd.bumpCall, nd, nil)                        // want `bound method value as the AtCall callback`
	eng.AtCall(10, tick, nd.n, nil)                             // want `AtCall argument boxes a int`
	eng.AfterCall(5, tick, nd, label{})                         // want `AfterCall argument boxes a a\.label`

	//lkvet:allow hotalloc cold setup path, scheduled once per trial
	eng.After(5, func() { nd.n++ })
}

type label struct{ id int }

// loop is a per-packet loop in the allocation-free shape: in-flight
// state in the struct, continuations bound once into fields.
type loop struct {
	task   *cpu.Task
	lock   *cpu.FairLock
	n      int
	stepFn func()
}

func (l *loop) step() {}

func newLoop(task *cpu.Task) *loop {
	l := &loop{task: task}
	l.stepFn = l.step // bound once: fine
	return l
}

func post(l *loop, fn func()) {
	l.task.Post(5, l.stepFn)                                     // bound-once field: fine
	l.task.Post(5, fn)                                           // parameter: fine
	l.task.Post(5, nil)                                          // no work function: fine
	l.task.Post(5, func() {})                                    // capture-free literal: fine
	l.task.Post(5, l.step)                                       // want `bound method value passed to Task\.Post`
	l.task.Post(5, func() { l.n++ })                             // want `closure literal passed to Task\.Post captures l`
	l.task.PostCenter(5, prov.CenterIPInput, l.step)             // want `bound method value passed to Task\.PostCenter`
	l.task.PostCenter(5, prov.CenterIPInput, func() { l.n++ })   // want `closure literal passed to Task\.PostCenter captures l`
	l.task.PostLocked(l.lock, 5, prov.CenterIPInput, l.step)     // want `bound method value passed to Task\.PostLocked`
	l.task.PostLocked(l.lock, 5, prov.CenterIPInput, (l.stepFn)) // parenthesized field: fine
	p := &l.n
	l.task.PostLocked(l.lock, 5, prov.CenterIPInput, func() { *p++ }) // want `closure literal passed to Task\.PostLocked captures p`

	//lkvet:allow hotalloc cold setup path, posted once per trial
	l.task.Post(5, func() { l.n = 0 })
}

func (n *node) bumpCall(a, b any) {}

func format(x int) string {
	return fmt.Sprintf("%d", x) // want `fmt\.Sprintf allocates`
}

// Stringer-style formatting methods are cold by convention.
func (n *node) String() string { return fmt.Sprintf("node %d", n.n) }

// Panic messages are off the hot path by definition.
func check(ok bool) {
	if !ok {
		panic(fmt.Sprintf("invariant violated"))
	}
}

// Exporters take an io.Writer and format output by contract.
func (n *node) WriteTo(w io.Writer) {
	fmt.Fprintf(w, "node %d\n", n.n)
}
