package core

import (
	"errors"
	"runtime"
	"testing"

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
// flight-recorder ring holds. Any per-action record kept forever shows
// here — 96 B each is ~14 MB over the measured 150k — while the 2 MB
// bound leaves room for GC noise. No timing, so it runs under -race.
func TestRetiredActionsStayBounded(t *testing.T) {
	_, retire := nopStream(t, trace.NewFlight(1024))
	heapAfter := func(total int) uint64 {
		for n := 0; n < total; n += 1000 {
			retire(1000)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	at50k := heapAfter(50_000)
	at200k := heapAfter(150_000)
	if at200k > at50k && at200k-at50k >= 2<<20 {
		t.Fatalf("heap grew %d B over 150k retired actions (%d → %d), want < 2 MB",
			at200k-at50k, at50k, at200k)
	}
}
