// Package timesim provides a deterministic discrete-event simulation
// engine with a virtual clock.
//
// The hStreams runtime can execute either for real (goroutines, real
// kernels, wall-clock time) or on this engine (virtual time, durations
// supplied by a cost model). The engine is what lets the benchmark
// harness replay the paper's multi-coprocessor experiments — 30 000²
// matrices across a host and two simulated Knights Corner cards — in
// milliseconds of wall time while preserving the schedule structure
// (dependences, resource contention, compute/transfer overlap).
//
// The engine is strictly deterministic: events scheduled for the same
// virtual instant fire in the order they were scheduled.
package timesim

import (
	"fmt"
	"time"
)

// Engine is a virtual clock with an event queue. It is not safe for
// concurrent use; simulated runs are single-goroutine by design so that
// results are reproducible.
type Engine struct {
	now    time.Duration
	seq    uint64
	events []event // binary min-heap in (at, seq) order
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Pending reports how many events are scheduled but not yet fired.
func (e *Engine) Pending() int { return len(e.events) }

// At schedules fn to run at virtual time t. Scheduling in the past
// (t < Now) panics: it would mean a causality violation in the caller,
// which is always a bug.
func (e *Engine) At(t time.Duration, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("timesim: scheduling event at %v before now %v", t, e.now))
	}
	e.push(t, fn)
}

// After schedules fn to run d from now. Negative d panics.
func (e *Engine) After(d time.Duration, fn func()) {
	e.At(e.now+d, fn)
}

// Post schedules fn for time t like At, but clamps past timestamps to
// now instead of panicking. Callers that keep exact event times in
// their own bookkeeping (and only need the engine for firing order)
// use this so the clock can be pumped ahead of lazily-scheduled work.
func (e *Engine) Post(t time.Duration, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.push(t, fn)
}

// Step fires the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was fired.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	ev.fn()
	return true
}

// RunUntil fires events until done() reports true or the queue drains.
// It returns true if done() was satisfied. Note that done is checked
// before each step, so a run with an immediately-true predicate fires
// nothing.
func (e *Engine) RunUntil(done func() bool) bool {
	for !done() {
		if !e.Step() {
			return done()
		}
	}
	return true
}

// Drain fires all pending events (including ones scheduled by fired
// events) and returns the final virtual time.
func (e *Engine) Drain() time.Duration {
	for e.Step() {
	}
	return e.now
}

type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// before is the firing order: by time, ties in scheduling order. seq
// is unique, so the order is total and every run fires identically.
func (ev *event) before(o *event) bool {
	return ev.at < o.at || ev.at == o.at && ev.seq < o.seq
}

// push adds an event for fn at t, moving parents down into the hole
// until its slot is found.
func (e *Engine) push(t time.Duration, fn func()) {
	e.seq++
	ev := event{at: t, seq: e.seq, fn: fn}
	e.events = append(e.events, event{})
	h := e.events
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// pop removes and returns the earliest event: the last event moves
// into the hole the root leaves, sinking below earlier children. The
// vacated slot is cleared so the heap does not keep a fired fn
// reachable.
func (e *Engine) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	e.events = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
}
