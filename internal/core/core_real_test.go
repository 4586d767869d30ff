package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"hstreams/internal/floatbits"
	"hstreams/internal/platform"
)

// registerTestKernels installs the small kernels the Real-mode tests
// drive streams with.
func registerTestKernels(rt *Runtime) {
	// scale: ops[0] *= args[0]
	rt.RegisterKernel("scale", func(ctx *KernelCtx) {
		v := floatbits.Float64s(ctx.Ops[0])
		f := float64(ctx.Args[0])
		for i := range v {
			v[i] *= f
		}
	})
	// affine: ops[0] = ops[0]*args[0] + args[1] (non-commutative
	// across invocations, used by ordering tests)
	rt.RegisterKernel("affine", func(ctx *KernelCtx) {
		v := floatbits.Float64s(ctx.Ops[0])
		m, c := float64(ctx.Args[0]), float64(ctx.Args[1])
		for i := range v {
			v[i] = v[i]*m + c
		}
	})
	// copy: ops[1] = ops[0]
	rt.RegisterKernel("copy", func(ctx *KernelCtx) {
		copy(ctx.Ops[1], ctx.Ops[0])
	})
	// slowcopy: sleep args[0] ms, then ops[1] = ops[0]
	rt.RegisterKernel("slowcopy", func(ctx *KernelCtx) {
		time.Sleep(time.Duration(ctx.Args[0]) * time.Millisecond)
		copy(ctx.Ops[1], ctx.Ops[0])
	})
	// boom: panics
	rt.RegisterKernel("boom", func(ctx *KernelCtx) { panic("boom") })
}

func TestRealOffloadRoundTrip(t *testing.T) {
	rt := realRuntime(t, 1)
	registerTestKernels(rt)
	b, f, err := rt.AllocFloat64("v", 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f {
		f[i] = float64(i)
	}
	s, err := rt.StreamCreate(rt.Card(0), 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnqueueXferAll(b, ToSink); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnqueueCompute("scale", []int64{3}, []Operand{b.All(InOut)}, platform.Cost{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnqueueXferAll(b, ToSource); err != nil {
		t.Fatal(err)
	}
	if err := s.Synchronize(); err != nil {
		t.Fatal(err)
	}
	for i := range f {
		if f[i] != float64(3*i) {
			t.Fatalf("f[%d] = %v, want %v", i, f[i], 3*i)
		}
	}
}

func TestRealHostAsTargetStream(t *testing.T) {
	rt := realRuntime(t, 0)
	registerTestKernels(rt)
	b, f, _ := rt.AllocFloat64("v", 8)
	for i := range f {
		f[i] = 2
	}
	s, err := rt.StreamCreate(rt.Host(), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Transfers on host streams are aliased away but must preserve
	// ordering; computes run directly on the source instance.
	if _, err := s.EnqueueXferAll(b, ToSink); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnqueueCompute("scale", []int64{5}, []Operand{b.All(InOut)}, platform.Cost{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnqueueXferAll(b, ToSource); err != nil {
		t.Fatal(err)
	}
	rt.ThreadSynchronize()
	if f[0] != 10 {
		t.Fatalf("f[0] = %v, want 10", f[0])
	}
}

func TestRealFIFOOrderOnOverlap(t *testing.T) {
	// Two affine updates of the same range do not commute; the FIFO
	// semantic must apply them in program order.
	rt := realRuntime(t, 1)
	registerTestKernels(rt)
	b, f, _ := rt.AllocFloat64("v", 4)
	f[0] = 1
	s, _ := rt.StreamCreate(rt.Card(0), 0, 4)
	must(t)(s.EnqueueXferAll(b, ToSink))
	mustEnqueueC(t, s, "affine", []int64{10, 1}, []Operand{b.All(InOut)}) // 1*10+1 = 11
	mustEnqueueC(t, s, "affine", []int64{2, 5}, []Operand{b.All(InOut)})  // 11*2+5 = 27
	must(t)(s.EnqueueXferAll(b, ToSource))
	rt.ThreadSynchronize()
	if f[0] != 27 {
		t.Fatalf("f[0] = %v, want 27 (in-order) — reordering would give %v", f[0], (1*2+5)*10+1)
	}
}

func TestRealWARHazardEnforced(t *testing.T) {
	// A slow reader of X followed by a writer of X: the writer must
	// wait (WAR), so the reader sees the old value.
	rt := realRuntime(t, 0)
	registerTestKernels(rt)
	x, fx, _ := rt.AllocFloat64("x", 4)
	y, fy, _ := rt.AllocFloat64("y", 4)
	fx[0] = 1
	s, _ := rt.StreamCreate(rt.Host(), 0, 2)
	mustEnqueueC(t, s, "slowcopy", []int64{50}, []Operand{x.All(In), y.All(Out)})
	mustEnqueueC(t, s, "affine", []int64{0, 9}, []Operand{x.All(InOut)}) // x = 9
	rt.ThreadSynchronize()
	if fy[0] != 1 {
		t.Fatalf("reader saw overwritten value: y = %v, want 1", fy[0])
	}
	if fx[0] != 9 {
		t.Fatalf("writer result lost: x = %v, want 9", fx[0])
	}
}

func TestRealIndependentActionsCanReorder(t *testing.T) {
	// A long compute on buffer A followed by a transfer of
	// independent buffer B: the transfer may (and here, must) finish
	// first — the out-of-order freedom CUDA streams lack (§IV).
	rt := realRuntime(t, 1)
	registerTestKernels(rt)
	a, _, _ := rt.AllocFloat64("a", 4)
	bb, _, _ := rt.AllocFloat64("b", 4)
	s, _ := rt.StreamCreate(rt.Card(0), 0, 4)
	must(t)(s.EnqueueXferAll(a, ToSink))
	slow := mustEnqueueC(t, s, "slowcopy", []int64{150}, []Operand{a.All(In), a.All(Out)})
	xfer := must(t)(s.EnqueueXferAll(bb, ToSink))
	if err := xfer.Wait(); err != nil {
		t.Fatal(err)
	}
	if slow.Completed() {
		t.Skip("compute finished implausibly fast; cannot observe reordering")
	}
	rt.ThreadSynchronize()
	_, slowEnd := slow.Times()
	_, xferEnd := xfer.Times()
	if xferEnd >= slowEnd {
		t.Fatalf("independent transfer did not overtake compute: xfer end %v, compute end %v", xferEnd, slowEnd)
	}
}

func TestRealMarkerBarsReordering(t *testing.T) {
	// Same as above but with a marker between: now the transfer must
	// wait for the compute.
	rt := realRuntime(t, 1)
	registerTestKernels(rt)
	a, _, _ := rt.AllocFloat64("a", 4)
	bb, _, _ := rt.AllocFloat64("b", 4)
	s, _ := rt.StreamCreate(rt.Card(0), 0, 4)
	must(t)(s.EnqueueXferAll(a, ToSink))
	slow := mustEnqueueC(t, s, "slowcopy", []int64{60}, []Operand{a.All(In), a.All(Out)})
	if _, err := s.EnqueueMarker(); err != nil {
		t.Fatal(err)
	}
	xfer := must(t)(s.EnqueueXferAll(bb, ToSink))
	if err := xfer.Wait(); err != nil {
		t.Fatal(err)
	}
	if !slow.Completed() {
		t.Fatal("marker failed to order transfer after compute")
	}
}

func TestRealCrossStreamEventWait(t *testing.T) {
	rt := realRuntime(t, 1)
	registerTestKernels(rt)
	x, fx, _ := rt.AllocFloat64("x", 4)
	y, fy, _ := rt.AllocFloat64("y", 4)
	fx[0] = 5
	s1, _ := rt.StreamCreate(rt.Host(), 0, 2)
	s2, _ := rt.StreamCreate(rt.Host(), 2, 2)
	// s1 computes x slowly; s2 copies x into y but must wait for s1
	// via an event — there are no implicit inter-stream dependences.
	ev := mustEnqueueC(t, s1, "slowcopy", []int64{50}, []Operand{x.All(In), x.All(Out)})
	if _, err := s2.EnqueueEventWait(ev); err != nil {
		t.Fatal(err)
	}
	mustEnqueueC(t, s2, "copy", nil, []Operand{x.All(In), y.All(Out)})
	rt.ThreadSynchronize()
	if fy[0] != 5 {
		t.Fatalf("y = %v, want 5", fy[0])
	}
}

func TestRealEventWaitAnyAll(t *testing.T) {
	rt := realRuntime(t, 0)
	registerTestKernels(rt)
	x, _, _ := rt.AllocFloat64("x", 4)
	s, _ := rt.StreamCreate(rt.Host(), 0, 2)
	fast := mustEnqueueC(t, s, "affine", []int64{1, 1}, []Operand{x.Range(0, 8, InOut)})
	slow := mustEnqueueC(t, s, "slowcopy", []int64{80}, []Operand{x.Range(8, 8, In), x.Range(16, 8, Out)})
	rt.EventWait([]*Action{fast, slow}, false)
	if !fast.Completed() && !slow.Completed() {
		t.Fatal("EventWait(any) returned with nothing complete")
	}
	rt.EventWait([]*Action{fast, slow}, true)
	if !fast.Completed() || !slow.Completed() {
		t.Fatal("EventWait(all) returned early")
	}
	rt.EventWait(nil, true) // empty must not block
}

func TestRealKernelPanicPropagates(t *testing.T) {
	rt := realRuntime(t, 1)
	registerTestKernels(rt)
	b, _, _ := rt.AllocFloat64("b", 4)
	for _, d := range []*Domain{rt.Host(), rt.Card(0)} {
		s, _ := rt.StreamCreate(d, 0, 2)
		a := mustEnqueueC(t, s, "boom", nil, []Operand{b.All(InOut)})
		if err := a.Wait(); err == nil || !strings.Contains(err.Error(), "panic") {
			t.Fatalf("%s: err = %v, want kernel panic", d, err)
		}
	}
	if rt.Err() == nil {
		t.Fatal("runtime first-error not recorded")
	}
}

func TestRealUnregisteredKernelRejected(t *testing.T) {
	rt := realRuntime(t, 0)
	s, _ := rt.StreamCreate(rt.Host(), 0, 2)
	if _, err := s.EnqueueCompute("ghost", nil, nil, platform.Cost{}); err == nil {
		t.Fatal("unregistered kernel accepted")
	}
}

func TestStreamCreateValidation(t *testing.T) {
	rt := realRuntime(t, 1)
	host := rt.Host()
	if _, err := rt.StreamCreate(host, 0, 0); err == nil {
		t.Fatal("zero-width stream accepted")
	}
	if _, err := rt.StreamCreate(host, -1, 2); err == nil {
		t.Fatal("negative core accepted")
	}
	if _, err := rt.StreamCreate(host, 0, host.Spec().Cores()+1); err == nil {
		t.Fatal("overwide stream accepted")
	}
	// Overlapping core ranges are explicitly allowed (tuners may map
	// multiple streams onto common resources).
	if _, err := rt.StreamCreate(host, 0, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.StreamCreate(host, 0, 4); err != nil {
		t.Fatal(err)
	}
}

func TestOperandValidationAtEnqueue(t *testing.T) {
	rt := realRuntime(t, 0)
	registerTestKernels(rt)
	b, _, _ := rt.AllocFloat64("b", 4)
	s, _ := rt.StreamCreate(rt.Host(), 0, 2)
	if _, err := s.EnqueueCompute("scale", []int64{2}, []Operand{b.Range(0, 999, InOut)}, platform.Cost{}); err != ErrBadOperand {
		t.Fatalf("err = %v, want ErrBadOperand", err)
	}
	if _, err := s.EnqueueXfer(b, 16, 64, ToSink); err != ErrBadOperand {
		t.Fatalf("xfer err = %v, want ErrBadOperand", err)
	}
}

func TestFinalizedRuntimeRejectsWork(t *testing.T) {
	rt, err := Init(Config{Machine: platform.HSWPlusKNC(0), Mode: ModeReal})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := rt.StreamCreate(rt.Host(), 0, 2)
	rt.Fini()
	rt.Fini() // double Fini must be safe
	if _, err := rt.Alloc1D("b", 8); err != ErrFinalized {
		t.Fatalf("Alloc1D err = %v", err)
	}
	if _, err := rt.StreamCreate(rt.Host(), 0, 2); err != ErrFinalized {
		t.Fatalf("StreamCreate err = %v", err)
	}
	if _, err := s.EnqueueMarker(); err != ErrFinalized {
		t.Fatalf("Enqueue err = %v", err)
	}
}

func TestInitValidation(t *testing.T) {
	if _, err := Init(Config{}); err != ErrEmptyMachine {
		t.Fatalf("err = %v, want ErrEmptyMachine", err)
	}
	if _, err := Init(Config{Machine: platform.HSWPlusKNC(0), Mode: Mode(42)}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestDomainEnumeration(t *testing.T) {
	rt := realRuntime(t, 2)
	if rt.NumCards() != 2 {
		t.Fatalf("NumCards = %d", rt.NumCards())
	}
	if !rt.Host().IsHost() || rt.Card(0).IsHost() {
		t.Fatal("host/card classification wrong")
	}
	ds := rt.Domains()
	if len(ds) != 3 || ds[0].Index() != 0 || ds[1].Spec().Kind != platform.MIC {
		t.Fatalf("Domains = %v", ds)
	}
	if rt.Machine() == nil || rt.Mode() != ModeReal {
		t.Fatal("accessor plumbing")
	}
}

// must returns a helper that unwraps (action, error) pairs.
func must(t *testing.T) func(*Action, error) *Action {
	return func(a *Action, err error) *Action {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
}

func mustEnqueueC(t *testing.T, s *Stream, kernel string, args []int64, ops []Operand) *Action {
	t.Helper()
	a, err := s.EnqueueCompute(kernel, args, ops, platform.Cost{})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestRealRemoteDomainRoundTrip(t *testing.T) {
	// The uniform interface: offloading to a Xeon on a remote node
	// is the same code as offloading to a local card.
	m := platform.HSWPlusKNC(0).AddRemote(platform.HSW(), platform.Fabric())
	rt, err := Init(Config{Machine: m, Mode: ModeReal})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Fini()
	registerTestKernels(rt)
	b, f, _ := rt.AllocFloat64("v", 16)
	for i := range f {
		f[i] = 2
	}
	s, err := rt.StreamCreate(rt.Card(0), 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	must(t)(s.EnqueueXferAll(b, ToSink))
	mustEnqueueC(t, s, "scale", []int64{7}, []Operand{b.All(InOut)})
	must(t)(s.EnqueueXferAll(b, ToSource))
	rt.ThreadSynchronize()
	if err := rt.Err(); err != nil {
		t.Fatal(err)
	}
	if f[0] != 14 {
		t.Fatalf("f[0] = %v, want 14", f[0])
	}
}

func TestStreamDestroy(t *testing.T) {
	rt := isoRuntime(t, ModeReal, 1)
	registerTestKernels(rt)
	// held reports what the runtime holds for its streams: the streams
	// Status lists and the hstreams_domain_streams gauge.
	held := func() (int, float64) {
		return len(rt.Status().Streams), rt.Metrics().Total("hstreams_domain_streams")
	}
	b, f, _ := rt.AllocFloat64("v", 8)
	f[0] = 2
	s, _ := rt.StreamCreate(rt.Card(0), 0, 4)
	must(t)(s.EnqueueXferAll(b, ToSink))
	mustEnqueueC(t, s, "scale", []int64{3}, []Operand{b.All(InOut)})
	must(t)(s.EnqueueXferAll(b, ToSource))
	if n, g := held(); n != 1 || g != 1 {
		t.Fatalf("before destroy: %d streams listed, gauge %v; want 1, 1", n, g)
	}
	// Destroy drains in-flight work, then refuses new enqueues and
	// takes the stream out of the runtime.
	if err := s.Destroy(); err != nil {
		t.Fatal(err)
	}
	if f[0] != 6 {
		t.Fatalf("destroy did not drain: f[0] = %v", f[0])
	}
	if n, g := held(); n != 0 || g != 0 {
		t.Fatalf("after destroy: %d streams listed, gauge %v; want 0, 0", n, g)
	}
	if _, err := s.EnqueueMarker(); err != ErrBadStream {
		t.Fatalf("enqueue after destroy err = %v, want ErrBadStream", err)
	}
	if err := s.Destroy(); err != nil {
		t.Fatalf("second destroy err = %v", err)
	}
	if n, g := held(); n != 0 || g != 0 {
		t.Fatalf("after second destroy: %d streams listed, gauge %v; want 0, 0", n, g)
	}
	// Other streams keep working, under a name of their own.
	s2, err := rt.StreamCreate(rt.Card(0), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Name() == s.Name() {
		t.Fatalf("new stream reuses the destroyed stream's name %q", s.Name())
	}
	if _, err := s2.EnqueueMarker(); err != nil {
		t.Fatal(err)
	}
	// Churn leaves the table and the gauge where they were.
	for i := 0; i < 2000; i++ {
		s, err := rt.StreamCreate(rt.Host(), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Destroy(); err != nil {
			t.Fatal(err)
		}
	}
	if n, g := held(); n != 1 || g != 1 {
		t.Fatalf("after 2000 create/destroy pairs: %d streams listed, gauge %v; want 1, 1", n, g)
	}
}

// TestCardStreamDestroyReleasesPipeline checks that destroying a card
// stream tears down its COI pipeline: churning card streams on one
// runtime leaves no sink executor goroutine behind.
func TestCardStreamDestroyReleasesPipeline(t *testing.T) {
	rt := isoRuntime(t, ModeReal, 1)
	registerTestKernels(rt)
	b, _, _ := rt.AllocFloat64("v", 8)
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		s, err := rt.StreamCreate(rt.Card(0), 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 { // some pipelines have run work when destroyed
			mustEnqueueC(t, s, "scale", []int64{1}, []Operand{b.All(InOut)})
		}
		if err := s.Destroy(); err != nil {
			t.Fatal(err)
		}
	}
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > base+2; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base+2 {
		t.Fatalf("%d goroutines after 100 card-stream create/destroy pairs, %d before", n, base)
	}
}

// TestFiniClearsDomainStreams checks that hstreams_domain_streams
// returns to zero at Fini, counting each stream off exactly once
// whether Destroy came before Fini, after it, or never.
func TestFiniClearsDomainStreams(t *testing.T) {
	rt := isoRuntime(t, ModeReal, 1)
	var streams []*Stream
	for _, d := range []*Domain{rt.Host(), rt.Card(0), rt.Card(0)} {
		s, err := rt.StreamCreate(d, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, s)
	}
	gauge := func() float64 { return rt.Metrics().Total("hstreams_domain_streams") }
	if err := streams[0].Destroy(); err != nil {
		t.Fatal(err)
	}
	if g := gauge(); g != 2 {
		t.Fatalf("gauge = %v before Fini, want 2", g)
	}
	rt.Fini()
	if g := gauge(); g != 0 {
		t.Fatalf("gauge = %v after Fini, want 0", g)
	}
	if err := streams[1].Destroy(); err != nil {
		t.Fatal(err)
	}
	if g := gauge(); g != 0 {
		t.Fatalf("gauge = %v after a Destroy that followed Fini, want 0", g)
	}
}

func TestErrorMidGraphDoesNotWedgeRuntime(t *testing.T) {
	// A failing kernel must not deadlock its successors or the
	// runtime: downstream actions still complete (with the data in
	// whatever state the failure left it), and the error is
	// reported.
	rt := realRuntime(t, 1)
	registerTestKernels(rt)
	b, _, _ := rt.AllocFloat64("v", 8)
	s, _ := rt.StreamCreate(rt.Card(0), 0, 4)
	must(t)(s.EnqueueXferAll(b, ToSink))
	bad := mustEnqueueC(t, s, "boom", nil, []Operand{b.All(InOut)})
	after := mustEnqueueC(t, s, "scale", []int64{2}, []Operand{b.All(InOut)})
	rt.ThreadSynchronize()
	if bad.Err() == nil {
		t.Fatal("failing kernel reported no error")
	}
	if !after.Completed() {
		t.Fatal("successor never completed after upstream failure")
	}
	if rt.Err() == nil {
		t.Fatal("runtime did not record the first error")
	}
}
