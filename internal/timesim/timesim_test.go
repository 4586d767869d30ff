package timesim

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"
	"weak"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30*time.Microsecond, func() { got = append(got, 3) })
	e.At(10*time.Microsecond, func() { got = append(got, 1) })
	e.At(20*time.Microsecond, func() { got = append(got, 2) })
	e.Drain()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30*time.Microsecond {
		t.Fatalf("Now = %v, want 30µs", e.Now())
	}
}

func TestEngineTiesFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Millisecond, func() { got = append(got, i) })
	}
	e.Drain()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie order = %v, want ascending", got)
		}
	}
}

func TestEngineEventsScheduleEvents(t *testing.T) {
	e := NewEngine()
	var fired int
	var chain func()
	chain = func() {
		fired++
		if fired < 5 {
			e.After(time.Second, chain)
		}
	}
	e.After(time.Second, chain)
	end := e.Drain()
	if fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
	if end != 5*time.Second {
		t.Fatalf("end = %v, want 5s", end)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(time.Second, func() {})
	e.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(time.Millisecond, func() {})
}

func TestEngineAfterNegativePanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("After with negative duration did not panic")
		}
	}()
	e.After(-time.Second, func() {})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var n int
	for i := 1; i <= 10; i++ {
		e.At(time.Duration(i)*time.Millisecond, func() { n++ })
	}
	ok := e.RunUntil(func() bool { return n >= 4 })
	if !ok || n != 4 {
		t.Fatalf("RunUntil stopped at n=%d ok=%v, want n=4 ok=true", n, ok)
	}
	if e.Pending() != 6 {
		t.Fatalf("Pending = %d, want 6", e.Pending())
	}
	if e.RunUntil(func() bool { return n >= 100 }) {
		t.Fatal("RunUntil reported success for unreachable predicate")
	}
	if n != 10 {
		t.Fatalf("after drain n = %d, want 10", n)
	}
}

func TestRunUntilImmediatePredicateFiresNothing(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(time.Second, func() { fired = true })
	if !e.RunUntil(func() bool { return true }) {
		t.Fatal("RunUntil with true predicate returned false")
	}
	if fired {
		t.Fatal("RunUntil fired an event despite satisfied predicate")
	}
}

func TestResourceSerializes(t *testing.T) {
	r := NewResource("slot")
	s1, e1 := r.Reserve(0, 10*time.Millisecond)
	s2, e2 := r.Reserve(0, 5*time.Millisecond)
	if s1 != 0 || e1 != 10*time.Millisecond {
		t.Fatalf("first reservation [%v,%v), want [0,10ms)", s1, e1)
	}
	if s2 != 10*time.Millisecond || e2 != 15*time.Millisecond {
		t.Fatalf("second reservation [%v,%v), want [10ms,15ms)", s2, e2)
	}
	if r.Busy() != 15*time.Millisecond {
		t.Fatalf("Busy = %v, want 15ms", r.Busy())
	}
	if r.Reservations() != 2 {
		t.Fatalf("Reservations = %d, want 2", r.Reservations())
	}
}

func TestResourceRespectsReadyTime(t *testing.T) {
	r := NewResource("slot")
	r.Reserve(0, time.Millisecond)
	s, e := r.Reserve(10*time.Millisecond, time.Millisecond)
	if s != 10*time.Millisecond || e != 11*time.Millisecond {
		t.Fatalf("reservation [%v,%v), want [10ms,11ms)", s, e)
	}
}

func TestResourceUtilization(t *testing.T) {
	r := NewResource("slot")
	r.Reserve(0, 30*time.Millisecond)
	if got := r.Utilization(60 * time.Millisecond); got != 0.5 {
		t.Fatalf("Utilization = %v, want 0.5", got)
	}
	if got := r.Utilization(0); got != 0 {
		t.Fatalf("Utilization(0) = %v, want 0", got)
	}
}

// Property: reservations on a resource never overlap and never start
// before their ready time.
func TestResourceReservationsNeverOverlap(t *testing.T) {
	f := func(seeds []uint8) bool {
		r := NewResource("p")
		var prevEnd time.Duration
		for _, s := range seeds {
			ready := time.Duration(s%16) * time.Millisecond
			dur := time.Duration(s%7+1) * time.Millisecond
			start, end := r.Reserve(ready, dur)
			if start < ready || start < prevEnd || end != start+dur {
				return false
			}
			prevEnd = end
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the engine fires events in nondecreasing time order no
// matter the insertion order.
func TestEngineMonotoneClock(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := NewEngine()
		var fireTimes []time.Duration
		for _, off := range offsets {
			at := time.Duration(off) * time.Microsecond
			e.At(at, func() { fireTimes = append(fireTimes, e.Now()) })
		}
		e.Drain()
		if !sort.SliceIsSorted(fireTimes, func(i, j int) bool { return fireTimes[i] < fireTimes[j] }) {
			return false
		}
		return len(fireTimes) == len(offsets)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPostClampsPastEvents(t *testing.T) {
	e := NewEngine()
	e.At(10*time.Millisecond, func() {})
	e.Step()
	var firedAt time.Duration
	e.Post(2*time.Millisecond, func() { firedAt = e.Now() }) // in the past
	e.Step()
	if firedAt != 10*time.Millisecond {
		t.Fatalf("past Post fired at %v, want clamped to 10ms", firedAt)
	}
	// Future Post behaves like At.
	e.Post(20*time.Millisecond, func() { firedAt = e.Now() })
	e.Drain()
	if firedAt != 20*time.Millisecond {
		t.Fatalf("future Post fired at %v, want 20ms", firedAt)
	}
}

// Post and Step allocate nothing once the heap has grown: the events
// live by value in the engine's slice.
func TestPostStepAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Post(time.Duration(i), fn)
	}
	e.Drain()
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 16; i++ {
			e.Post(e.Now()+time.Duration(i%5), fn)
		}
		for i := 0; i < 16; i++ {
			e.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("Post+Step allocate %v times per 16 events, want 0", allocs)
	}
}

// Seeded interleavings of At, Post (past times included), Step and
// events that schedule events fire in the order a stable sort of the
// pending events by time gives at every step — (at, seq) order.
func TestEngineOrderMatchesStableSort(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		type pend struct {
			at time.Duration
			id int
		}
		var pending []pend // in scheduling order
		var got []int
		next := 0
		var schedule func(post bool)
		schedule = func(post bool) {
			id := next
			next++
			at := e.Now() + time.Duration(rng.Intn(8))
			if post {
				at -= time.Duration(rng.Intn(8)) // may lie in the past
			}
			fn := func() {
				got = append(got, id)
				if rng.Intn(4) == 0 {
					schedule(rng.Intn(2) == 0)
				}
			}
			if post {
				e.Post(at, fn)
				at = max(at, e.Now())
			} else {
				e.At(at, fn)
			}
			pending = append(pending, pend{at, id})
		}
		for op := 0; op < 2000; op++ {
			if rng.Intn(3) > 0 {
				schedule(rng.Intn(2) == 0)
				continue
			}
			if len(pending) == 0 {
				if e.Step() {
					t.Fatal("Step fired with nothing pending")
				}
				continue
			}
			sort.SliceStable(pending, func(i, j int) bool { return pending[i].at < pending[j].at })
			want := pending[0]
			pending = pending[1:]
			n := len(got)
			if !e.Step() || len(got) != n+1 || got[n] != want.id || e.Now() != want.at {
				t.Fatalf("seed %d op %d: fired %v at %v, want event %d at %v", seed, op, got[n:], e.Now(), want.id, want.at)
			}
		}
		if e.Pending() != len(pending) {
			t.Fatalf("seed %d: Pending = %d, want %d", seed, e.Pending(), len(pending))
		}
	}
}

// A fired event's fn is unreachable from the engine once Step
// returns: the heap clears the slot it vacates, and no stale copy of
// a moved event stays behind past its end.
func TestStepDropsFiredEvent(t *testing.T) {
	e := NewEngine()
	early, late := postHolding(e, 0), postHolding(e, 1)
	e.Step()
	e.Step()
	runtime.GC()
	if early.Value() != nil || late.Value() != nil {
		t.Fatal("a fired event's closure is still reachable from the engine")
	}
	runtime.KeepAlive(e)
}

// postHolding posts an event whose fn holds the only reference to a
// fresh object, and returns a weak pointer to that object.
func postHolding(e *Engine, at time.Duration) weak.Pointer[[64]byte] {
	obj := new([64]byte)
	e.Post(at, func() { obj[0]++ })
	return weak.Make(obj)
}

// A typed queue hands each event's payload to its fire function in
// (at, seq) order, and posting a pointer payload allocates nothing:
// the pointer is the whole event, with no closure around it.
func TestQueueTypedPayload(t *testing.T) {
	type item struct{ id int }
	var got []int
	q := NewQueue(func(it *item) { got = append(got, it.id) })
	items := make([]*item, 6)
	for i := range items {
		items[i] = &item{id: i}
	}
	for i, at := range []time.Duration{3, 1, 3, 2, 1, 0} {
		q.Post(at, items[i])
	}
	q.Drain()
	want := []int{5, 1, 4, 3, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		got = got[:0]
		for i, it := range items {
			q.Post(q.Now()+time.Duration(i%3), it)
		}
		q.Drain()
	})
	if allocs != 0 {
		t.Fatalf("Post+Drain of %d pointer payloads allocates %v times, want 0", len(items), allocs)
	}
}
