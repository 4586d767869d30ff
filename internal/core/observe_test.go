package core

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"hstreams/internal/metrics"
	"hstreams/internal/platform"
	"hstreams/internal/trace"
)

// TestFirstErrorPreserved is the regression test for Runtime.setErr:
// the first action error must survive later failures, later errors
// must count in hstreams_errors_suppressed_total, and every failure in
// hstreams_action_errors_total.
func TestFirstErrorPreserved(t *testing.T) {
	reg := metrics.New()
	rt, err := Init(Config{Machine: platform.HSWPlusKNC(0), Mode: ModeReal, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Fini()
	rt.RegisterKernel("boom1", func(ctx *KernelCtx) { panic("boom1") })
	rt.RegisterKernel("boom2", func(ctx *KernelCtx) { panic("boom2") })
	s, err := rt.StreamCreate(rt.Host(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rt.Alloc1D("b", 64)
	if err != nil {
		t.Fatal(err)
	}
	// The InOut hazard on b serializes the two failures, so boom1
	// always completes (and fails) first.
	a1, err := s.EnqueueCompute("boom1", nil, []Operand{b.All(InOut)}, platform.Cost{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.EnqueueCompute("boom2", nil, []Operand{b.All(InOut)}, platform.Cost{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a1.Wait(); err == nil || !strings.Contains(err.Error(), "boom1") {
		t.Fatalf("a1.Wait() = %v, want boom1 panic", err)
	}
	if err := a2.Wait(); err == nil || !strings.Contains(err.Error(), "boom2") {
		t.Fatalf("a2.Wait() = %v, want boom2 panic", err)
	}
	if err := rt.Err(); err == nil || !strings.Contains(err.Error(), "boom1") {
		t.Fatalf("Err() = %v, want the first failure (boom1)", err)
	}
	if got := reg.Total("hstreams_action_errors_total"); got != 2 {
		t.Fatalf("errors_total = %v, want 2", got)
	}
	if got := reg.Total("hstreams_errors_suppressed_total"); got != 1 {
		t.Fatalf("errors_suppressed_total = %v, want 1", got)
	}
}

// driveObserved runs a dependence-heavy workload over several streams
// of rt: per stream, transfer → chain of hazard-serialized computes →
// transfer, plus a cross-stream event wait.
func driveObserved(t *testing.T, rt *Runtime) int {
	t.Helper()
	const streams, chain = 3, 8
	var last *Action
	actions := 0
	for i := 0; i < streams; i++ {
		d := rt.Host()
		if rt.NumCards() > 0 {
			d = rt.Card(i % rt.NumCards())
		}
		s, err := rt.StreamCreate(d, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rt.Alloc1D(fmt.Sprintf("b%d", i), 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.EnqueueXferAll(b, ToSink); err != nil {
			t.Fatal(err)
		}
		actions++
		for j := 0; j < chain; j++ {
			a, err := s.EnqueueCompute("step", nil, []Operand{b.All(InOut)},
				platform.Cost{Kernel: platform.KDGEMM, Flops: 1e6, N: 64})
			if err != nil {
				t.Fatal(err)
			}
			actions++
			last = a
		}
		if last != nil && i > 0 {
			if _, err := s.EnqueueEventWait(last); err != nil {
				t.Fatal(err)
			}
			actions++
		}
		if _, err := s.EnqueueXferAll(b, ToSource); err != nil {
			t.Fatal(err)
		}
		actions++
	}
	rt.ThreadSynchronize()
	if err := rt.Err(); err != nil {
		t.Fatal(err)
	}
	return actions
}

// checkSpanPhases asserts the run left exactly one span per action,
// each with its phases in lifecycle order: enqueue ≤ ready ≤ launch ≤
// finish.
func checkSpanPhases(t *testing.T, rt *Runtime, wantActions int) {
	t.Helper()
	spans, err := rt.Spans()
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != wantActions {
		t.Fatalf("recorded %d spans, want one per action (%d)", len(spans), wantActions)
	}
	for _, sp := range spans {
		if sp.Enqueue > sp.Ready || sp.Ready > sp.Launch || sp.Launch > sp.Finish {
			t.Errorf("span %d phases out of order: enqueue %v ready %v launch %v finish %v",
				sp.ID, sp.Enqueue, sp.Ready, sp.Launch, sp.Finish)
		}
	}
}

func TestSpanPhaseOrderReal(t *testing.T) {
	rt, err := Init(Config{Machine: platform.HSWPlusKNC(2), Mode: ModeReal, Metrics: metrics.New(), Flight: trace.NewFlight(256)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Fini()
	rt.RegisterKernel("step", func(ctx *KernelCtx) {
		for i := range ctx.Ops[0] {
			ctx.Ops[0][i]++
		}
	})
	checkSpanPhases(t, rt, driveObserved(t, rt))
}

func TestSpanPhaseOrderSim(t *testing.T) {
	rt, err := Init(Config{Machine: platform.HSWPlusKNC(2), Mode: ModeSim, Metrics: metrics.New(), Flight: trace.NewFlight(256)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Fini()
	checkSpanPhases(t, rt, driveObserved(t, rt))
}

// TestRetireHookOncePerAction drives a dependence chain through a host
// and a card stream, with a panicking kernel in the middle, and checks
// the retire hook contract: one call per action; inside it the action
// is complete, Done is closed and Err is final; and the successor it
// gated has not launched yet.
func TestRetireHookOncePerAction(t *testing.T) {
	for _, mode := range []Mode{ModeSim, ModeReal} {
		rt, err := Init(Config{Machine: platform.HSWPlusKNC(1), Mode: mode, Metrics: metrics.New(), DisableCausalTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		rt.RegisterKernel("ok", func(*KernelCtx) {})
		rt.RegisterKernel("boom", func(*KernelCtx) { panic("boom") })

		var mu sync.Mutex
		calls := map[*Action]int{}
		next := map[*Action]*Action{} // chain successor, gated by the key
		hook := func(a *Action) {
			mu.Lock()
			defer mu.Unlock()
			calls[a]++
			if !a.Completed() {
				t.Errorf("%v: action %d not Completed inside its hook", mode, a.ID())
			}
			select {
			case <-a.Done():
			default:
				t.Errorf("%v: action %d Done still open inside its hook", mode, a.ID())
			}
			if wantErr := mode == ModeReal && a.rec.Label == "boom"; (a.Err() != nil) != wantErr {
				t.Errorf("%v: action %d (%s) Err = %v inside its hook", mode, a.ID(), a.rec.Label, a.Err())
			}
			if b := next[a]; b != nil {
				if _, end := b.Times(); end != 0 {
					t.Errorf("%v: successor %d launched before action %d's hook", mode, b.ID(), a.ID())
				}
			}
		}
		n := 0
		for _, d := range []*Domain{rt.Host(), rt.Card(0)} {
			s, err := rt.StreamCreate(d, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			s.SetRetireHook(hook)
			b, err := rt.Alloc1D(d.Spec().Name, 256)
			if err != nil {
				t.Fatal(err)
			}
			all := []Operand{b.All(InOut)}
			cost := platform.Cost{Kernel: platform.KDGEMM, Flops: 1e6, N: 64}
			enqueue := []func() (*Action, error){
				func() (*Action, error) { return s.EnqueueXferAll(b, ToSink) },
				func() (*Action, error) { return s.EnqueueCompute("ok", nil, all, cost) },
				func() (*Action, error) { return s.EnqueueCompute("boom", nil, all, cost) },
				func() (*Action, error) { return s.EnqueueCompute("ok", nil, all, cost) },
				s.EnqueueMarker,
				func() (*Action, error) { return s.EnqueueXferAll(b, ToSource) },
			}
			var prev *Action
			for _, enq := range enqueue {
				mu.Lock() // a hook reading next must see the link or no successor yet
				a, err := enq()
				if err != nil {
					mu.Unlock()
					t.Fatal(err)
				}
				if prev != nil && !prev.completed() {
					// prev was still incomplete after a's enqueue, so a's
					// dependence scan linked a behind it.
					next[prev] = a
				}
				mu.Unlock()
				prev = a
				n++
			}
		}
		rt.ThreadSynchronize()
		// The hook runs after the action leaves the window, so the last
		// calls may land just after ThreadSynchronize returns.
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			mu.Lock()
			got := len(calls)
			mu.Unlock()
			if got == n || time.Now().After(deadline) {
				break
			}
		}
		rt.Fini()
		mu.Lock()
		if len(calls) != n {
			t.Errorf("%v: hook saw %d actions, want %d", mode, len(calls), n)
		}
		for a, c := range calls {
			if c != 1 {
				t.Errorf("%v: hook ran %d times for action %d", mode, c, a.ID())
			}
		}
		mu.Unlock()
		if mode == ModeReal && rt.Err() == nil {
			t.Error("Real run with a panicking kernel reported no error")
		}
	}
}

// TestSynchronizeSeesRetiredError is the regression test for the
// publish-before-retire order of an action's error: once a failed
// action has left its stream's window, Synchronize must report the
// failure. A host kernel panics, the probe waits for the window to
// empty, then synchronizes.
func TestSynchronizeSeesRetiredError(t *testing.T) {
	for round := 0; round < 300; round++ {
		rt, err := Init(Config{Machine: platform.HSWPlusKNC(0), Mode: ModeReal, Metrics: metrics.New(), DisableCausalTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		rt.RegisterKernel("boom", func(*KernelCtx) { panic("boom") })
		s, err := rt.StreamCreate(rt.Host(), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.EnqueueCompute("boom", nil, nil, platform.Cost{}); err != nil {
			t.Fatal(err)
		}
		for {
			s.mu.Lock()
			empty := len(s.inflight) == 0
			s.mu.Unlock()
			if empty {
				break
			}
			runtime.Gosched()
		}
		err = s.Synchronize()
		rt.Fini()
		if err == nil {
			t.Fatalf("round %d: Synchronize after the failed action retired = nil, want its error", round)
		}
	}
}

// TestSpanCapture checks the flight-recorder integration: completed
// actions appear as spans with ordered phase timestamps and the causal
// edges the scheduler actually enforced.
func TestSpanCapture(t *testing.T) {
	flight := trace.NewFlight(256)
	rt, err := Init(Config{Machine: platform.HSWPlusKNC(1), Mode: ModeSim, Metrics: metrics.New(), Flight: flight})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Fini()
	s, err := rt.StreamCreate(rt.Card(0), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := rt.StreamCreate(rt.Card(0), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rt.Alloc1D("b", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	up, err := s.EnqueueXferAll(b, ToSink)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.EnqueueCompute("dgemm", nil, []Operand{b.All(InOut)},
		platform.Cost{Kernel: platform.KDGEMM, Flops: 1e9, N: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.EnqueueEventWait(c); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnqueueMarker(); err != nil {
		t.Fatal(err)
	}
	rt.ThreadSynchronize()

	spans := trace.FilterRun(flight.Snapshot(), rt.RunID())
	if len(spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(spans))
	}
	byID := map[uint64]trace.Span{}
	for _, sp := range spans {
		byID[sp.ID] = sp
		if sp.Enqueue > sp.Ready || sp.Ready > sp.Launch || sp.Launch > sp.Finish {
			t.Fatalf("span %d phases out of order: %+v", sp.ID, sp)
		}
	}
	// The transfer names its link direction; the compute depends on it
	// via the operand hazard.
	upSpan := byID[up.ID()]
	if upSpan.Src != "HSW" || upSpan.Dst != "KNC0" {
		t.Fatalf("transfer span link = %s→%s, want HSW→KNC0", upSpan.Src, upSpan.Dst)
	}
	cSpan := byID[c.ID()]
	if len(cSpan.Deps) != 1 || cSpan.Deps[0].ID != up.ID() || cSpan.Deps[0].Why != trace.DepFIFO {
		t.Fatalf("compute deps = %+v, want one fifo edge from %d", cSpan.Deps, up.ID())
	}
	var sawEvent, sawSync bool
	for _, sp := range spans {
		for _, d := range sp.Deps {
			switch d.Why {
			case trace.DepEvent:
				sawEvent = true
			case trace.DepSync:
				sawSync = true
			}
		}
	}
	if !sawEvent || !sawSync {
		t.Fatalf("dep kinds: event=%v sync=%v, want both", sawEvent, sawSync)
	}
}

// TestDisableCausalTrace checks the ablation: no spans, no dep
// recording, and Flight() reports nil.
func TestDisableCausalTrace(t *testing.T) {
	flight := trace.NewFlight(256)
	rt, err := Init(Config{
		Machine: platform.HSWPlusKNC(1), Mode: ModeSim, Metrics: metrics.New(),
		Flight: flight, DisableCausalTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Fini()
	if rt.Flight() != nil {
		t.Fatal("Flight() should be nil when tracing is disabled")
	}
	s, err := rt.StreamCreate(rt.Card(0), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rt.Alloc1D("b", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnqueueXferAll(b, ToSink); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnqueueCompute("k", nil, []Operand{b.All(InOut)}, platform.Cost{Flops: 1e6}); err != nil {
		t.Fatal(err)
	}
	rt.ThreadSynchronize()
	if n := flight.Total(); n != 0 {
		t.Fatalf("flight recorded %d spans with tracing disabled", n)
	}
}

// TestTracingAddsNoAllocs is the deterministic proxy for the trace
// overhead budget: a traced Sim enqueue→retire on one card stream must
// allocate exactly as much as the same action with causal tracing off
// (span values live in per-stream record slabs, the ring stores
// pointers, and neither allocates per action). Either way an action is
// one heap object: its completion event carries the action itself, and
// its first two successors live inline, so the second run, where each
// writer gates two readers, must stay at one allocation per action too.
func TestTracingAddsNoAllocs(t *testing.T) {
	perAction := func(disable, fanOut bool) float64 {
		rt, err := Init(Config{
			Machine: platform.HSWPlusKNC(1), Mode: ModeSim, Metrics: metrics.New(),
			Flight: trace.NewFlight(1 << 12), DisableCausalTrace: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Fini()
		s, err := rt.StreamCreate(rt.Card(0), 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rt.Alloc1D("x", 64)
		if err != nil {
			t.Fatal(err)
		}
		cost := platform.Cost{Flops: 1e6}
		if !fanOut {
			return testing.AllocsPerRun(1000, func() {
				a, err := s.EnqueueCompute("k", nil, nil, cost)
				if err != nil {
					t.Fatal(err)
				}
				if err := a.Wait(); err != nil {
					t.Fatal(err)
				}
			})
		}
		write, read := []Operand{b.All(Out)}, []Operand{b.All(In)}
		return testing.AllocsPerRun(1000, func() {
			var last *Action
			for _, ops := range [][]Operand{write, read, read} {
				if last, err = s.EnqueueCompute("k", nil, ops, cost); err != nil {
					t.Fatal(err)
				}
			}
			if err := last.Wait(); err != nil {
				t.Fatal(err)
			}
		}) / 3
	}
	for _, fanOut := range []bool{false, true} {
		traced, untraced := perAction(false, fanOut), perAction(true, fanOut)
		if traced != untraced {
			t.Fatalf("fan-out %v: allocations per action: traced %.2f, untraced %.2f; tracing must add none", fanOut, traced, untraced)
		}
		if traced > 1 {
			t.Fatalf("fan-out %v: %.2f allocations per action, want ≤ 1 (the action itself)", fanOut, traced)
		}
		t.Logf("fan-out %v: allocations per action: %.2f traced and untraced", fanOut, traced)
	}
}

// TestActionSize pins an action to the 192-B size class or below: it
// is the one heap object each enqueue makes.
func TestActionSize(t *testing.T) {
	if n := unsafe.Sizeof(Action{}); n > 192 {
		t.Fatalf("Action is %d B, want ≤ 192", n)
	}
}

// TestLiveRuntimesRegistry checks Init/Fini registration.
func TestLiveRuntimesRegistry(t *testing.T) {
	before := len(LiveRuntimes())
	rt, err := Init(Config{Machine: platform.HSWPlusKNC(0), Mode: ModeSim, Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range LiveRuntimes() {
		if r == rt {
			found = true
		}
	}
	if !found {
		t.Fatal("initialized runtime missing from LiveRuntimes")
	}
	rt.Fini()
	if got := len(LiveRuntimes()); got != before {
		t.Fatalf("LiveRuntimes after Fini = %d, want %d", got, before)
	}
}

// TestStatusSnapshot checks the debug status API on a quiesced Sim
// runtime.
func TestStatusSnapshot(t *testing.T) {
	rt, err := Init(Config{Machine: platform.HSWPlusKNC(1), Mode: ModeSim, Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Fini()
	s, err := rt.StreamCreate(rt.Card(0), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rt.Alloc1D("b", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnqueueXferAll(b, ToSink); err != nil {
		t.Fatal(err)
	}
	rt.ThreadSynchronize()
	st := rt.Status()
	if st.Run != rt.RunID() || st.Mode != "sim" {
		t.Fatalf("Status = %+v", st)
	}
	if len(st.Streams) != 1 || st.Streams[0].Name != s.Name() || st.Streams[0].Depth != 0 {
		t.Fatalf("Status.Streams = %+v", st.Streams)
	}
	if st.Outstanding != 0 {
		t.Fatalf("Outstanding = %d, want 0", st.Outstanding)
	}
	if st.Streams[0].Retired != 1 || len(st.Links) != 2 {
		t.Fatalf("Retired = %d, %d links; want 1 and both directions of the card link", st.Streams[0].Retired, len(st.Links))
	}

	// A deep window reordered by swap retirement: the scan stops at
	// maxStatusScan actions, and the detail is the oldest
	// maxInflightStatus of them in id order.
	var acts []*Action
	for i := 0; i < 1500; i++ {
		a, err := s.EnqueueCompute("k", nil, nil, platform.Cost{Flops: 1e6})
		if err != nil {
			t.Fatal(err)
		}
		acts = append(acts, a)
	}
	if err := acts[100].Wait(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	depth := len(s.inflight)
	var ids []uint64
	for _, a := range s.inflight[:maxStatusScan] {
		ids = append(ids, a.rec.ID)
	}
	s.mu.Unlock()
	if sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
		t.Fatal("window still in id order; the test needs swap retirement to reorder it")
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	ss := rt.Status().Streams[0]
	if ss.Depth != depth || !ss.Truncated || ss.Launched+ss.Pending != maxStatusScan || ss.Retired != uint64(1+1500-depth) {
		t.Fatalf("deep window: %+v, want depth %d, truncated, %d scanned, %d retired",
			ss, depth, maxStatusScan, 1+1500-depth)
	}
	if len(ss.Inflight) != maxInflightStatus || ss.OldestAction != ids[0] {
		t.Fatalf("deep window: %d detailed, oldest %d; want %d, oldest %d", len(ss.Inflight), ss.OldestAction, maxInflightStatus, ids[0])
	}
	for i, as := range ss.Inflight {
		if as.ID != ids[i] {
			t.Fatalf("Inflight[%d] = action %d, want %d (the oldest scanned, in id order)", i, as.ID, ids[i])
		}
	}
}
