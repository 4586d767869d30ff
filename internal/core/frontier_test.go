package core

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"testing"
	"time"

	"hstreams/internal/platform"
	"hstreams/internal/trace"
)

// Sync actions link behind their stream's frontier: the incomplete
// actions no later action of the same stream depends on. These tests
// pin the fan-in that buys, the membership rules that keep it sound,
// and checkpoint compatibility with runs recorded before the rule.

// frontierTiles is the number of independent chains tileWindow builds,
// the shape of the scheduler workloads (64 tiles per stream).
const frontierTiles = 64

// tileWindow enqueues n InOut actions on stream s, action i on tile
// i%frontierTiles of b, so the window holds frontierTiles independent
// chains n/frontierTiles deep.
func tileWindow(tb testing.TB, s *Stream, b *Buf, kernel string, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		if _, err := s.EnqueueCompute(kernel, nil, tile(b, i%frontierTiles), platform.Cost{}); err != nil {
			tb.Fatal(err)
		}
	}
}

// depsOf returns a's recorded in-edges by predecessor id.
func depsOf(a *Action) map[uint64]trace.DepKind {
	m := make(map[uint64]trace.DepKind)
	for _, d := range a.rec.AppendDeps(nil) {
		m[d.ID] = d.Why
	}
	return m
}

// TestMarkerFanInIsChainCount: a marker behind 64 independent chains
// 2,048 actions deep records one DepSync edge per chain tip, not one
// per window member.
func TestMarkerFanInIsChainCount(t *testing.T) {
	rt, _ := tracedRuntime(t, ModeSim, 1)
	s, err := rt.StreamCreate(rt.Card(0), 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rt.Alloc1D("tiles", frontierTiles*64)
	if err != nil {
		t.Fatal(err)
	}
	tileWindow(t, s, b, "k", 2048)
	m, err := s.EnqueueMarker()
	if err != nil {
		t.Fatal(err)
	}
	sync := 0
	for _, why := range depsOf(m) {
		if why != trace.DepSync {
			t.Fatalf("marker edge of kind %v", why)
		}
		sync++
	}
	if sync != frontierTiles {
		t.Fatalf("marker behind %d chains 2048 deep recorded %d DepSync edges, want %d",
			frontierTiles, sync, frontierTiles)
	}
}

// markerAllocs measures one marker's allocations behind a Sim window
// of 64 chains depth actions deep, each run on a fresh stream. The
// window slice is grown ahead of the marker: its amortized doubling
// lands on the 512th append but not the 2,048th, and is no cost of the
// marker.
func markerAllocs(t *testing.T, depth int) float64 {
	t.Helper()
	const runs = 4
	rt, _ := tracedRuntime(t, ModeSim, 1)
	b, err := rt.Alloc1D("tiles", frontierTiles*64)
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]*Stream, runs+1) // AllocsPerRun calls once more to warm up
	for i := range streams {
		s, err := rt.StreamCreate(rt.Card(0), 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		tileWindow(t, s, b, "k", depth)
		s.mu.Lock()
		s.inflight = slices.Grow(s.inflight, 1)
		s.mu.Unlock()
		streams[i] = s
	}
	next := 0
	return testing.AllocsPerRun(runs, func() {
		if _, err := streams[next].EnqueueMarker(); err != nil {
			t.Fatal(err)
		}
		next++
	})
}

// TestMarkerAllocsIndependentOfDepth: a marker's allocations depend on
// the number of chains, not on how deep the window behind them is.
func TestMarkerAllocsIndependentOfDepth(t *testing.T) {
	shallow, deep := markerAllocs(t, 512), markerAllocs(t, 2048)
	if shallow != deep {
		t.Fatalf("marker allocs: %v behind 512 actions, %v behind 2048; want equal", shallow, deep)
	}
}

// BenchmarkMarkerAtDepth times one marker enqueue behind 64 gated
// chains of depth actions in Real mode, which has no window drain, so
// the depth is exact. ns/op includes building and draining the
// window; marker-ns/op is the marker's enqueue alone.
func BenchmarkMarkerAtDepth(b *testing.B) {
	for _, depth := range []int{64, 1024, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			rt, _ := tracedRuntime(b, ModeReal, 0)
			open := make(chan struct{})
			rt.RegisterKernel("gate", func(*KernelCtx) { <-open })
			rt.RegisterKernel("nop", func(*KernelCtx) {})
			s, err := rt.StreamCreate(rt.Host(), 0, 1)
			if err != nil {
				b.Fatal(err)
			}
			buf, err := rt.Alloc1D("tiles", frontierTiles*64)
			if err != nil {
				b.Fatal(err)
			}
			var marker time.Duration
			for i := 0; i < b.N; i++ {
				if _, err := s.EnqueueCompute("gate", nil, []Operand{buf.All(InOut)}, platform.Cost{}); err != nil {
					b.Fatal(err)
				}
				tileWindow(b, s, buf, "nop", depth)
				t0 := time.Now()
				if _, err := s.EnqueueMarker(); err != nil {
					b.Fatal(err)
				}
				marker += time.Since(t0)
				open <- struct{}{}
				if err := s.Synchronize(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(marker.Nanoseconds())/float64(b.N), "marker-ns/op")
		})
	}
}

// twoSimStreams returns a traced Sim runtime's two card streams and a
// 64-tile buffer.
func twoSimStreams(t *testing.T) (*Runtime, *Stream, *Stream, *Buf) {
	t.Helper()
	rt, _ := tracedRuntime(t, ModeSim, 1)
	s1, err := rt.StreamCreate(rt.Card(0), 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := rt.StreamCreate(rt.Card(0), 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rt.Alloc1D("tiles", frontierTiles*64)
	if err != nil {
		t.Fatal(err)
	}
	return rt, s1, s2, b
}

// tile returns the InOut operand of tile k of b.
func tile(b *Buf, k int) []Operand {
	return []Operand{{Buf: b, Off: int64(k) * 64, Len: 64, Acc: InOut}}
}

// TestFrontierKeepsCrossStreamPredecessor: an event edge from another
// stream does not take an action off its own stream's frontier, so a
// later marker of that stream still links behind it.
func TestFrontierKeepsCrossStreamPredecessor(t *testing.T) {
	_, s1, s2, b := twoSimStreams(t)
	act, err := s1.EnqueueCompute("k", nil, tile(b, 0), simCost(64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.EnqueueEventWait(act); err != nil {
		t.Fatal(err)
	}
	m, err := s1.EnqueueMarker()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := depsOf(m), map[uint64]trace.DepKind{act.ID(): trace.DepSync}; !maps.Equal(got, want) {
		t.Fatalf("marker edges %v, want %v", got, want)
	}
}

// TestFrontierSameStreamExtrasCover: an explicit dependence on an
// action of the same stream takes it off the frontier like an operand
// edge does, so the marker links behind the dependent action alone.
func TestFrontierSameStreamExtrasCover(t *testing.T) {
	_, s1, _, b := twoSimStreams(t)
	x, err := s1.EnqueueCompute("k", nil, tile(b, 0), simCost(64))
	if err != nil {
		t.Fatal(err)
	}
	y, err := s1.EnqueueComputeDeps("k", nil, tile(b, 1), simCost(64), []*Action{x})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s1.EnqueueMarker()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := depsOf(m), map[uint64]trace.DepKind{y.ID(): trace.DepSync}; !maps.Equal(got, want) {
		t.Fatalf("marker edges %v, want %v", got, want)
	}
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, xEnd := x.Times(); xEnd > m.rec.Launch {
		t.Fatalf("marker launched at %v before covered action ended at %v", m.rec.Launch, xEnd)
	}
}

// TestFrontierEmptyAfterThreadSynchronize: retirement takes every
// action off its frontier, so a drained runtime pins none.
func TestFrontierEmptyAfterThreadSynchronize(t *testing.T) {
	rt, s1, s2, b := twoSimStreams(t)
	tileWindow(t, s1, b, "k", 3*frontierTiles)
	ev, err := s1.EnqueueMarker()
	if err != nil {
		t.Fatal(err)
	}
	tileWindow(t, s1, b, "k", frontierTiles/2)
	if _, err := s2.EnqueueEventWait(ev); err != nil {
		t.Fatal(err)
	}
	tileWindow(t, s2, b, "k", frontierTiles)
	rt.ThreadSynchronize()
	for _, s := range []*Stream{s1, s2} {
		s.mu.Lock()
		n := len(s.frontier)
		s.mu.Unlock()
		if n != 0 {
			t.Errorf("%s: %d actions on the frontier after ThreadSynchronize", s.Name(), n)
		}
	}
}

// buildFanInDAG enqueues, in Sim mode, markers behind tile chains on
// two streams and a cross-stream event-wait: 16 tile actions, a
// marker, 8 more, an event-wait on another stream, 4 tiles there and a
// marker on each stream. testdata/ckpt_full_fanin.json is this DAG's
// checkpoint as recorded when a sync linked behind its stream's whole
// window.
func buildFanInDAG(t *testing.T, rt *Runtime) {
	t.Helper()
	s1, err := rt.StreamCreate(rt.Card(0), 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := rt.StreamCreate(rt.Card(0), 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rt.Alloc1D("tiles", 4*64)
	if err != nil {
		t.Fatal(err)
	}
	var last *Action
	tiles := func(s *Stream, n int) {
		for i := 0; i < n; i++ {
			if last, err = s.EnqueueCompute("k", nil, tile(b, i%4), simCost(64)); err != nil {
				t.Fatal(err)
			}
		}
	}
	tiles(s1, 16)
	if _, err := s1.EnqueueMarker(); err != nil {
		t.Fatal(err)
	}
	tiles(s1, 8)
	if _, err := s2.EnqueueEventWait(last); err != nil {
		t.Fatal(err)
	}
	tiles(s2, 4)
	if _, err := s2.EnqueueMarker(); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.EnqueueMarker(); err != nil {
		t.Fatal(err)
	}
	rt.ThreadSynchronize()
}

// TestCheckpointFullFanInReplays: a checkpoint recorded when syncs
// linked behind the whole window still replays edge for edge, since
// replay takes the recorded edges rather than rediscovering them. A
// checkpoint of the same DAG today records a subset of those edges,
// replays identically too, and the two replays and the live run agree
// on the makespan: the partial order did not change.
func TestCheckpointFullFanInReplays(t *testing.T) {
	f, err := os.Open("testdata/ckpt_full_fanin.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old, err := DecodeCheckpoint(f)
	if err != nil {
		t.Fatal(err)
	}
	// Whole-window fan-in: each marker names every earlier action of
	// its stream (16 behind the first, 25 behind the last).
	fanIn := map[int]int{16: 16, 30: 5, 31: 25}
	for i, want := range fanIn {
		if got := len(old.Actions[i].Deps); old.Actions[i].Kind != ckptKindSync || got != want {
			t.Fatalf("recorded action %d: %s with %d edges, want a sync with %d", i, old.Actions[i].Kind, got, want)
		}
	}
	oldRep, err := old.Replay()
	if err != nil {
		t.Fatalf("replaying the whole-window checkpoint: %v", err)
	}

	rt, _ := tracedRuntime(t, ModeSim, 1)
	buildFanInDAG(t, rt)
	live, err := rt.Spans()
	if err != nil {
		t.Fatal(err)
	}
	cur, err := rt.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	curRep, err := cur.Replay()
	if err != nil {
		t.Fatalf("replaying the current checkpoint: %v", err)
	}
	if len(cur.Actions) != len(old.Actions) {
		t.Fatalf("DAG has %d actions, the recorded one %d", len(cur.Actions), len(old.Actions))
	}
	for i, ca := range cur.Actions {
		was := make(map[CkptDep]bool)
		for _, d := range old.Actions[i].Deps {
			was[d] = true
		}
		for _, d := range ca.Deps {
			if !was[d] {
				t.Errorf("action %d records edge %+v the whole-window rule did not", i, d)
			}
		}
	}
	for i, want := range map[int]int{16: 4, 30: 4, 31: 4} {
		if got := len(cur.Actions[i].Deps); got != want {
			t.Errorf("sync %d records %d edges, want one per chain (%d)", i, got, want)
		}
	}
	if m := trace.Makespan(live); oldRep.Makespan != m || curRep.Makespan != m {
		t.Fatalf("makespans: live %v, whole-window replay %v, current replay %v; want equal",
			m, oldRep.Makespan, curRep.Makespan)
	}
}
