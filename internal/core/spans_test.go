package core

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
	"weak"

	"hstreams/internal/metrics"
	"hstreams/internal/platform"
	"hstreams/internal/trace"
)

// TestSpansEvictedRunIsAnError: a ring smaller than the run must make
// Spans fail loudly — a statistic over the retained tail would be a
// silently wrong makespan.
func TestSpansEvictedRunIsAnError(t *testing.T) {
	rt, err := Init(Config{
		Machine: platform.HSWPlusKNC(1),
		Mode:    ModeSim,
		Metrics: metrics.New(),
		Flight:  trace.NewFlight(4), // the DAG below has 7 actions
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Fini)
	buildCkptDAG(t, rt, "k")
	spans, err := rt.Spans()
	if !errors.Is(err, ErrCheckpointEvicted) {
		t.Fatalf("partially evicted run: err = %v, want ErrCheckpointEvicted", err)
	}
	if spans != nil {
		t.Fatalf("evicted run returned %d spans beside the error", len(spans))
	}
}

// TestSpansTraceDisabledIsAnError: with causal tracing off there is no
// record to derive anything from, and Spans must say so.
func TestSpansTraceDisabledIsAnError(t *testing.T) {
	rt, err := Init(Config{
		Machine: platform.HSWPlusKNC(1), Mode: ModeSim, Metrics: metrics.New(),
		DisableCausalTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Fini)
	buildCkptDAG(t, rt, "k")
	if spans, err := rt.Spans(); !errors.Is(err, ErrCheckpointEvicted) || spans != nil {
		t.Fatalf("tracing disabled: %d spans, err = %v, want none and ErrCheckpointEvicted", len(spans), err)
	}
}

// TestSpansSharedFlightSeesOwnRun: two runtimes interleaving actions
// into the process-wide ring each get back exactly their own run, whole
// and in id order.
func TestSpansSharedFlightSeesOwnRun(t *testing.T) {
	const rounds = 5
	var rts [2]*Runtime
	var streams [2]*Stream
	var bufs [2]*Buf
	for i := range rts {
		rts[i] = simRuntime(t, 1)
		if rts[i].Flight() != trace.DefaultFlight() {
			t.Fatal("runtime without Config.Flight must record into DefaultFlight")
		}
		streams[i], _ = rts[i].StreamCreate(rts[i].Card(0), 0, 61)
		bufs[i], _ = rts[i].Alloc1D("b", 1<<20)
	}
	for r := 0; r < rounds; r++ {
		for i := range rts {
			// The second runtime enqueues twice as much, so a mix-up
			// of the runs would show in the counts.
			for k := 0; k <= i; k++ {
				if _, err := streams[i].EnqueueXferAll(bufs[i], ToSink); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i, rt := range rts {
		rt.ThreadSynchronize()
		spans := spansOf(t, rt)
		if want := rounds * (i + 1); len(spans) != want {
			t.Fatalf("runtime %d: %d spans, want %d", i, len(spans), want)
		}
		for j, sp := range spans {
			if sp.Run != rt.RunID() || sp.ID != uint64(j+1) {
				t.Fatalf("runtime %d span %d: run %d id %d, want run %d id %d",
					i, j, sp.Run, sp.ID, rt.RunID(), j+1)
			}
		}
	}
}

// nopStream brings up a Real-mode host runtime recording into flight
// and returns it with a function that enqueues n empty-kernel actions
// on one stream and drains them.
func nopStream(t *testing.T, flight *trace.FlightRecorder) (*Runtime, func(n int)) {
	t.Helper()
	rt, err := Init(Config{
		Machine: platform.HSWPlusKNC(0),
		Mode:    ModeReal,
		Metrics: metrics.New(),
		Flight:  flight,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Fini)
	rt.RegisterKernel("nop", func(*KernelCtx) {})
	s, err := rt.StreamCreate(rt.Host(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rt.Alloc1D("b", 64)
	if err != nil {
		t.Fatal(err)
	}
	return rt, func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := s.EnqueueCompute("nop", nil, []Operand{b.All(InOut)}, platform.Cost{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Synchronize(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSpansCompleteAfterSynchronize: in Real mode actions finish on
// worker goroutines, and Synchronize returns the moment the stream's
// inflight window is empty — the span must already be in the ring by
// then, or a statistic read right after the drain misses the tail.
func TestSpansCompleteAfterSynchronize(t *testing.T) {
	rt, retire := nopStream(t, trace.NewFlight(1024))
	for n := 1; n <= 1000; n++ {
		retire(1)
		if got := len(spansOf(t, rt)); got != n {
			t.Fatalf("after draining %d actions Spans returned %d", n, got)
		}
	}
}

// TestRetiredActionsStayBounded guards long-running servers: a runtime
// that keeps retiring actions may retain only what the bounded
// flight-recorder ring holds, and the ring holds span values, not the
// actions. Filling a 64K ring must cost at most 256 B of live heap per
// retained span (a 128-B record each; a ring that kept each retired
// Action reachable would hold ≥ 768 B). Past that, any per-action
// record kept forever shows as growth — 96 B each is ~14 MB over the
// measured 150k — while the 2 MB bound leaves room for GC noise. No
// timing, so it runs under -race.
func TestRetiredActionsStayBounded(t *testing.T) {
	const ring = 1 << 16
	_, retire := nopStream(t, trace.NewFlight(ring))
	heapAfter := func(total int) uint64 {
		for n := 0; n < total; n += 1000 {
			retire(min(1000, total-n))
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	empty := heapAfter(1)
	full := heapAfter(ring)
	if full > empty {
		per := (full - empty) / ring
		t.Logf("full %d-span ring: %d B live heap per retained span", ring, per)
		if per > 256 {
			t.Fatalf("live heap grew %d B over a full %d-span ring (%d → %d): %d B per retained span, want ≤ 256",
				full-empty, ring, empty, full, per)
		}
	}
	after := heapAfter(150_000)
	if after > full && after-full >= 2<<20 {
		t.Fatalf("heap grew %d B over 150k retired actions (%d → %d), want < 2 MB",
			after-full, full, after)
	}
}

// TestFlightPinsNoAction: the ring keeps a retired action's span, never
// the action. Once the caller drops its handles, a GC frees every
// retired action (the newest is skipped: it is still its buffer's last
// writer in the dependence index), while the ring still returns each
// of their spans unchanged.
func TestFlightPinsNoAction(t *testing.T) {
	const n = 300
	rt, err := Init(Config{
		Machine: platform.HSWPlusKNC(0),
		Mode:    ModeReal,
		Metrics: metrics.New(),
		Flight:  trace.NewFlight(1024),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Fini)
	rt.RegisterKernel("nop", func(*KernelCtx) {})
	s, err := rt.StreamCreate(rt.Host(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rt.Alloc1D("b", 64)
	if err != nil {
		t.Fatal(err)
	}
	type retired struct {
		ptr           weak.Pointer[Action]
		id            uint64
		start, finish time.Duration
	}
	var acts []retired
	func() {
		var strong []*Action
		for i := 0; i <= n; i++ {
			a, err := s.EnqueueCompute("nop", nil, []Operand{b.All(InOut)}, platform.Cost{})
			if err != nil {
				t.Fatal(err)
			}
			strong = append(strong, a)
		}
		if err := s.Synchronize(); err != nil {
			t.Fatal(err)
		}
		for _, a := range strong[:n] {
			a.Wait()
			start, finish := a.Times()
			acts = append(acts, retired{weak.Make(a), a.ID(), start, finish})
		}
	}()
	before := spansOf(t, rt)
	runtime.GC()
	for i, r := range acts {
		if r.ptr.Value() != nil {
			t.Fatalf("retired action %d of %d (id %d) still reachable after GC", i+1, n, r.id)
		}
	}
	after := spansOf(t, rt)
	if !reflect.DeepEqual(after, before) {
		t.Fatal("spans changed once their actions were collected")
	}
	byID := make(map[uint64]trace.Span, len(after))
	for _, sp := range after {
		byID[sp.ID] = sp
	}
	for _, r := range acts {
		sp, ok := byID[r.id]
		if !ok || sp.Launch != r.start || sp.Finish != r.finish || sp.Label != "nop" || sp.Stream != s.Name() {
			t.Fatalf("span of collected action %d = %+v (present %v), want launch %v finish %v on %s",
				r.id, sp, ok, r.start, r.finish, s.Name())
		}
	}
}
