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

// Queue is a virtual clock with an event queue whose events carry a
// typed payload: firing an event hands its payload to the queue's fire
// function. A payload is a plain value stored in the heap slot, so a
// caller whose events are all "this item completes" posts the item
// itself and allocates nothing per event. A Queue is not safe for
// concurrent use; simulated runs are single-goroutine by design so
// that results are reproducible.
type Queue[T any] struct {
	now    time.Duration
	seq    uint64
	events []event[T] // binary min-heap in (at, seq) order
	fire   func(T)
}

// NewQueue returns a queue with the clock at zero that passes each
// fired event's payload to fire.
func NewQueue[T any](fire func(T)) *Queue[T] { return &Queue[T]{fire: fire} }

// Engine is the queue whose payloads are funcs: each event runs its
// func when it fires.
type Engine = Queue[func()]

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return NewQueue(func(fn func()) { fn() }) }

// Now returns the current virtual time.
func (e *Queue[T]) Now() time.Duration { return e.now }

// Pending reports how many events are scheduled but not yet fired.
func (e *Queue[T]) Pending() int { return len(e.events) }

// At schedules v to fire at virtual time t. Scheduling in the past
// (t < Now) panics: it would mean a causality violation in the caller,
// which is always a bug.
func (e *Queue[T]) At(t time.Duration, v T) {
	if t < e.now {
		panic(fmt.Sprintf("timesim: scheduling event at %v before now %v", t, e.now))
	}
	e.push(t, v)
}

// After schedules v to fire d from now. Negative d panics.
func (e *Queue[T]) After(d time.Duration, v T) {
	e.At(e.now+d, v)
}

// Post schedules v for time t like At, but clamps past timestamps to
// now instead of panicking. Callers that keep exact event times in
// their own bookkeeping (and only need the queue for firing order)
// use this so the clock can be pumped ahead of lazily-scheduled work.
func (e *Queue[T]) Post(t time.Duration, v T) {
	if t < e.now {
		t = e.now
	}
	e.push(t, v)
}

// Step fires the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was fired.
func (e *Queue[T]) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.fire(ev.v)
	return true
}

// RunUntil fires events until done() reports true or the queue drains.
// It returns true if done() was satisfied. Note that done is checked
// before each step, so a run with an immediately-true predicate fires
// nothing.
func (e *Queue[T]) RunUntil(done func() bool) bool {
	for !done() {
		if !e.Step() {
			return done()
		}
	}
	return true
}

// Drain fires all pending events (including ones scheduled by fired
// events) and returns the final virtual time.
func (e *Queue[T]) Drain() time.Duration {
	for e.Step() {
	}
	return e.now
}

type event[T any] struct {
	at  time.Duration
	seq uint64
	v   T
}

// before is the firing order: by time, ties in scheduling order. seq
// is unique, so the order is total and every run fires identically.
func (ev *event[T]) before(o *event[T]) bool {
	return ev.at < o.at || ev.at == o.at && ev.seq < o.seq
}

// push adds an event for v at t, moving parents down into the hole
// until its slot is found.
func (e *Queue[T]) push(t time.Duration, v T) {
	e.seq++
	ev := event[T]{at: t, seq: e.seq, v: v}
	e.events = append(e.events, event[T]{})
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
// vacated slot is cleared so the heap does not keep a fired payload
// reachable.
func (e *Queue[T]) pop() event[T] {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event[T]{}
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
