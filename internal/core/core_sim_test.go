package core

import (
	"testing"
	"time"

	"hstreams/internal/fabric"
	"hstreams/internal/platform"
	"hstreams/internal/trace"
)

func simCost(n int) platform.Cost {
	return platform.Cost{Kernel: platform.KDGEMM, Flops: 2 * float64(n) * float64(n) * float64(n), N: n}
}

func TestSimComputeDurationMatchesModel(t *testing.T) {
	rt := simRuntime(t, 1)
	card := rt.Card(0)
	s, err := rt.StreamCreate(card, 0, card.Spec().Cores())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := rt.Alloc1D("b", 1<<20)
	cost := simCost(2400)
	a, err := s.EnqueueCompute("dgemm", nil, []Operand{b.All(InOut)}, cost)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	start, end := a.Times()
	want := platform.ComputeTime(card.Spec(), card.Spec().Cores(), cost)
	if end-start != want {
		t.Fatalf("duration = %v, want %v", end-start, want)
	}
}

func TestSimTransferDurationMatchesLink(t *testing.T) {
	rt := simRuntime(t, 1)
	s, _ := rt.StreamCreate(rt.Card(0), 0, 16)
	b, _ := rt.Alloc1D("b", 8<<20)
	a, err := s.EnqueueXferAll(b, ToSink)
	if err != nil {
		t.Fatal(err)
	}
	a.Wait()
	start, end := a.Times()
	want := rt.Machine().Link.TransferTime(8 << 20)
	if end-start != want {
		t.Fatalf("transfer duration = %v, want %v", end-start, want)
	}
	// The link's ledger charges the transfer to HSW→KNC0 only.
	for _, l := range rt.LinkStats() {
		w := time.Duration(0)
		if l.Src == rt.Host().Spec().Name {
			w = want
		}
		if l.Modeled != w {
			t.Fatalf("link %s→%s modeled %v, want %v", l.Src, l.Dst, l.Modeled, w)
		}
	}
}

func TestSimHostTransferIsFree(t *testing.T) {
	rt := simRuntime(t, 0)
	s, _ := rt.StreamCreate(rt.Host(), 0, 4)
	b, _ := rt.Alloc1D("b", 64<<20)
	a, _ := s.EnqueueXferAll(b, ToSink)
	a.Wait()
	start, end := a.Times()
	if end != start {
		t.Fatalf("host-as-target transfer took %v, want 0 (optimized away)", end-start)
	}
}

func TestSimTransferOverlapsCompute(t *testing.T) {
	// Paper §II: "if compute task A is enqueued, followed by a
	// transfer of data for independent task B, then B's data transfer
	// may proceed out of order, concurrent with the execution of A."
	rt := simRuntime(t, 1)
	s, _ := rt.StreamCreate(rt.Card(0), 0, 61)
	a, _ := rt.Alloc1D("a", 1<<20)
	b, _ := rt.Alloc1D("b", 1<<20)
	comp, _ := s.EnqueueCompute("k", nil, []Operand{a.All(InOut)}, simCost(2400))
	xfer, _ := s.EnqueueXferAll(b, ToSink)
	rt.ThreadSynchronize()
	_, compEnd := comp.Times()
	xferStart, xferEnd := xfer.Times()
	if xferStart >= compEnd {
		t.Fatalf("independent transfer serialized after compute: xfer [%v,%v), compute ends %v", xferStart, xferEnd, compEnd)
	}
}

func TestSimDependentComputesSerialize(t *testing.T) {
	rt := simRuntime(t, 1)
	s, _ := rt.StreamCreate(rt.Card(0), 0, 61)
	b, _ := rt.Alloc1D("b", 1<<20)
	c1, _ := s.EnqueueCompute("k", nil, []Operand{b.All(InOut)}, simCost(1000))
	c2, _ := s.EnqueueCompute("k", nil, []Operand{b.All(InOut)}, simCost(1000))
	rt.ThreadSynchronize()
	_, e1 := c1.Times()
	s2, _ := c2.Times()
	if s2 < e1 {
		t.Fatalf("dependent compute started at %v before predecessor ended at %v", s2, e1)
	}
}

func TestSimStreamSlotSerializesIndependentComputes(t *testing.T) {
	// Two independent computes in ONE stream share the sink's cores,
	// so they serialize; in TWO streams they overlap.
	rt := simRuntime(t, 1)
	a, _ := rt.Alloc1D("a", 1<<20)
	b, _ := rt.Alloc1D("b", 1<<20)

	one, _ := rt.StreamCreate(rt.Card(0), 0, 30)
	c1, _ := one.EnqueueCompute("k", nil, []Operand{a.All(InOut)}, simCost(1200))
	c2, _ := one.EnqueueCompute("k", nil, []Operand{b.All(InOut)}, simCost(1200))
	rt.ThreadSynchronize()
	_, e1 := c1.Times()
	st2, _ := c2.Times()
	if st2 < e1 {
		t.Fatalf("one stream: computes overlapped [%v vs %v)", st2, e1)
	}

	sA, _ := rt.StreamCreate(rt.Card(0), 0, 30)
	sB, _ := rt.StreamCreate(rt.Card(0), 30, 30)
	d1, _ := sA.EnqueueCompute("k", nil, []Operand{a.All(InOut)}, simCost(1200))
	d2, _ := sB.EnqueueCompute("k", nil, []Operand{b.All(InOut)}, simCost(1200))
	rt.ThreadSynchronize()
	d1s, d1e := d1.Times()
	d2s, d2e := d2.Times()
	if d2s >= d1e || d1s >= d2e {
		t.Fatalf("two streams: computes did not overlap: [%v,%v) vs [%v,%v)", d1s, d1e, d2s, d2e)
	}
}

// TestSimSourceOverheadAccumulates: source-thread charges
// (ChargeSource, as cudasim, ompss and Sim Alloc1D use) accumulate on
// the host clock that stamps each enqueue.
func TestSimSourceOverheadAccumulates(t *testing.T) {
	rt, err := Init(Config{Machine: platform.HSWPlusKNC(0), Mode: ModeSim})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Fini()
	s, _ := rt.StreamCreate(rt.Host(), 0, 4)
	var last *Action
	for i := 0; i < 100; i++ {
		rt.ChargeSource(3 * time.Microsecond)
		last, _ = s.EnqueueMarker()
	}
	last.Wait()
	start, _ := last.Times()
	if want := 300 * time.Microsecond; start != want {
		t.Fatalf("100th enqueue ready at %v, want %v", start, want)
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() time.Duration {
		rt, _ := Init(Config{Machine: platform.HSWPlusKNC(2), Mode: ModeSim})
		defer rt.Fini()
		var streams []*Stream
		for c := 0; c < 2; c++ {
			s, _ := rt.StreamCreate(rt.Card(c), 0, 30)
			streams = append(streams, s)
		}
		bufs := make([]*Buf, 8)
		for i := range bufs {
			bufs[i], _ = rt.Alloc1D("b", 4<<20)
		}
		for i, b := range bufs {
			s := streams[i%2]
			s.EnqueueXferAll(b, ToSink)
			s.EnqueueCompute("k", nil, []Operand{b.All(InOut)}, simCost(1600))
			s.EnqueueXferAll(b, ToSource)
		}
		rt.ThreadSynchronize()
		return trace.Makespan(spansOf(t, rt))
	}
	m1, m2 := run(), run()
	if m1 != m2 || m1 <= 0 {
		t.Fatalf("non-deterministic sim: %v vs %v", m1, m2)
	}
}

func TestSimCrossStreamEventWait(t *testing.T) {
	rt := simRuntime(t, 2)
	s1, _ := rt.StreamCreate(rt.Card(0), 0, 61)
	s2, _ := rt.StreamCreate(rt.Card(1), 0, 61)
	a, _ := rt.Alloc1D("a", 1<<20)
	b, _ := rt.Alloc1D("b", 1<<20)
	c1, _ := s1.EnqueueCompute("k", nil, []Operand{a.All(InOut)}, simCost(2000))
	if _, err := s2.EnqueueEventWait(c1); err != nil {
		t.Fatal(err)
	}
	c2, _ := s2.EnqueueCompute("k", nil, []Operand{b.All(InOut)}, simCost(500))
	rt.ThreadSynchronize()
	_, e1 := c1.Times()
	st2, _ := c2.Times()
	if st2 < e1 {
		t.Fatalf("event wait ignored: c2 start %v < c1 end %v", st2, e1)
	}
}

func TestSimEventWaitAny(t *testing.T) {
	rt := simRuntime(t, 1)
	s, _ := rt.StreamCreate(rt.Card(0), 0, 61)
	a, _ := rt.Alloc1D("a", 1<<20)
	b, _ := rt.Alloc1D("b", 1<<20)
	fast, _ := s.EnqueueCompute("k", nil, []Operand{a.All(InOut)}, simCost(200))
	slow, _ := s.EnqueueCompute("k", nil, []Operand{b.All(InOut)}, simCost(4000))
	rt.EventWait([]*Action{slow, fast}, false)
	if !fast.Completed() {
		t.Fatal("EventWait(any) did not complete the fast action")
	}
	rt.ThreadSynchronize()
	_ = slow
}

func TestSimNowAdvances(t *testing.T) {
	rt := simRuntime(t, 1)
	if rt.Now() != 0 {
		t.Fatal("virtual clock must start at zero")
	}
	s, _ := rt.StreamCreate(rt.Card(0), 0, 61)
	b, _ := rt.Alloc1D("b", 1<<20)
	s.EnqueueCompute("k", nil, []Operand{b.All(InOut)}, simCost(2000))
	rt.ThreadSynchronize()
	if rt.Now() <= 0 {
		t.Fatal("virtual clock did not advance")
	}
}

func TestSimTraceRecords(t *testing.T) {
	rt := simRuntime(t, 1)
	s, _ := rt.StreamCreate(rt.Card(0), 0, 61)
	b, _ := rt.Alloc1D("b", 2<<20)
	s.EnqueueXferAll(b, ToSink)
	s.EnqueueCompute("k", nil, []Operand{b.All(InOut)}, simCost(1000))
	s.EnqueueXferAll(b, ToSource)
	rt.ThreadSynchronize()
	spans := spansOf(t, rt)
	if len(spans) != 3 {
		t.Fatalf("run has %d spans, want 3", len(spans))
	}
	var bytes int64
	var flops float64
	for _, sp := range spans {
		if sp.Kind == trace.Transfer {
			bytes += sp.Bytes
		}
		flops += sp.Flops
	}
	if bytes != 2*(2<<20) {
		t.Fatalf("transferred bytes = %d", bytes)
	}
	if flops != simCost(1000).Flops {
		t.Fatalf("flops = %v", flops)
	}
}

func TestSimAsyncAllocRemovesAllocStalls(t *testing.T) {
	// §VII: "making MIC-side memory allocation asynchronous is a
	// bottleneck; this feature is now forthcoming" — implemented
	// here. With synchronous allocation the source thread stalls per
	// buffer per card; with AsyncAlloc it does not.
	run := func(async bool) time.Duration {
		rt, err := Init(Config{Machine: platform.HSWPlusKNC(2), Mode: ModeSim, AsyncAlloc: async})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Fini()
		s, _ := rt.StreamCreate(rt.Card(0), 0, 61)
		var last *Action
		for i := 0; i < 32; i++ {
			b, err := rt.Alloc1D("b", 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			last, _ = s.EnqueueXferAll(b, ToSink)
		}
		last.Wait()
		rt.ThreadSynchronize()
		return trace.Makespan(spansOf(t, rt))
	}
	sync := run(false)
	async := run(true)
	if async >= sync {
		t.Fatalf("async alloc did not help: %v vs %v", async, sync)
	}
	// 32 buffers × 2 cards × FreshAllocCost of stalls should be
	// roughly the difference.
	if sync-async < 10*time.Millisecond {
		t.Fatalf("alloc stall savings implausibly small: %v", sync-async)
	}
}

func TestSimRemoteDomainUsesFabricLink(t *testing.T) {
	// §IV: streams can be created on devices residing in remote
	// nodes, reached over fabric — with exactly the same interface,
	// just a slower interconnect.
	m := platform.HSWPlusKNC(1).AddRemote(platform.HSW(), platform.Fabric())
	rt, err := Init(Config{Machine: m, Mode: ModeSim})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Fini()
	local, _ := rt.StreamCreate(rt.Card(0), 0, 16)
	remote, err := rt.StreamCreate(rt.Card(1), 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := rt.Alloc1D("b", 8<<20)
	lx, _ := local.EnqueueXferAll(b, ToSink)
	rx, _ := remote.EnqueueXferAll(b, ToSink)
	rt.ThreadSynchronize()
	ls, le := lx.Times()
	rs, re := rx.Times()
	if le-ls != m.Link.TransferTime(8<<20) {
		t.Fatalf("local transfer = %v, want PCIe %v", le-ls, m.Link.TransferTime(8<<20))
	}
	if re-rs != platform.Fabric().TransferTime(8<<20) {
		t.Fatalf("remote transfer = %v, want fabric %v", re-rs, platform.Fabric().TransferTime(8<<20))
	}
	if re-rs <= le-ls {
		t.Fatal("remote transfer should be slower than local")
	}
}

func TestSimSharedSlotStreamsContend(t *testing.T) {
	// StreamCreateOn(share) maps two streams onto common resources
	// (§II: tuners may map multiple streams onto a common set of
	// resources): their computes must serialize even though the
	// streams are distinct.
	rt := simRuntime(t, 1)
	card := rt.Card(0)
	s1, err := rt.StreamCreate(card, 0, 61)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := rt.StreamCreateOn(card, 0, 61, s1)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := rt.Alloc1D("a", 1<<20)
	b, _ := rt.Alloc1D("b", 1<<20)
	c1, _ := s1.EnqueueCompute("k", nil, []Operand{a.All(InOut)}, simCost(1500))
	c2, _ := s2.EnqueueCompute("k", nil, []Operand{b.All(InOut)}, simCost(1500))
	rt.ThreadSynchronize()
	s1s, s1e := c1.Times()
	s2s, s2e := c2.Times()
	if s2s < s1e && s1s < s2e {
		t.Fatalf("shared-slot computes overlapped: [%v,%v) vs [%v,%v)", s1s, s1e, s2s, s2e)
	}
}

func TestStreamCreateOnValidation(t *testing.T) {
	rt := simRuntime(t, 2)
	s1, _ := rt.StreamCreate(rt.Card(0), 0, 16)
	if _, err := rt.StreamCreateOn(rt.Card(1), 0, 16, s1); err != ErrBadStream {
		t.Fatalf("cross-domain share err = %v, want ErrBadStream", err)
	}
}

func TestSimExplicitDepsDoNotBarricade(t *testing.T) {
	// EnqueueComputeDeps attaches a cross-stream dependence to ONE
	// action; later independent actions in the stream may still
	// overtake it — unlike EnqueueEventWait, which bars the stream.
	rt := simRuntime(t, 2)
	s1, _ := rt.StreamCreate(rt.Card(0), 0, 61)
	s2, _ := rt.StreamCreate(rt.Card(1), 0, 61)
	a, _ := rt.Alloc1D("a", 1<<20)
	b, _ := rt.Alloc1D("b", 1<<20)
	c, _ := rt.Alloc1D("c", 1<<20)
	slow, _ := s1.EnqueueCompute("k", nil, []Operand{a.All(InOut)}, simCost(3000))
	dep, err := s2.EnqueueComputeDeps("k", nil, []Operand{b.All(InOut)}, simCost(500), []*Action{slow})
	if err != nil {
		t.Fatal(err)
	}
	free, _ := s2.EnqueueCompute("k", nil, []Operand{c.All(InOut)}, simCost(500))
	rt.ThreadSynchronize()
	_, slowEnd := slow.Times()
	depStart, _ := dep.Times()
	_, freeEnd := free.Times()
	if depStart < slowEnd {
		t.Fatalf("explicit dep violated: %v < %v", depStart, slowEnd)
	}
	if freeEnd > slowEnd {
		t.Fatalf("independent action was barricaded: free ends %v after slow ends %v", freeEnd, slowEnd)
	}
}

func TestSimXferDeps(t *testing.T) {
	rt := simRuntime(t, 2)
	s1, _ := rt.StreamCreate(rt.Card(0), 0, 61)
	s2, _ := rt.StreamCreate(rt.Card(1), 0, 61)
	a, _ := rt.Alloc1D("a", 1<<20)
	b, _ := rt.Alloc1D("b", 4<<20)
	comp, _ := s1.EnqueueCompute("k", nil, []Operand{a.All(InOut)}, simCost(2000))
	x, err := s2.EnqueueXferDeps(b, 0, b.Size(), ToSink, []*Action{comp})
	if err != nil {
		t.Fatal(err)
	}
	rt.ThreadSynchronize()
	_, ce := comp.Times()
	xs, _ := x.Times()
	if xs < ce {
		t.Fatalf("xfer dep violated: %v < %v", xs, ce)
	}
}

// TestLinkLedgerSameInBothModes runs one transfer-only program in Sim
// and in Real mode: both charge their card transfers to the same
// fabric links, so the per-direction ledgers must agree in bytes,
// transfers and modeled wire time.
func TestLinkLedgerSameInBothModes(t *testing.T) {
	ledger := func(mode Mode) []fabric.LinkStat {
		rt := isoRuntime(t, mode, 1)
		var streams [2]*Stream
		for i := range streams {
			s, err := rt.StreamCreate(rt.Card(0), 0, 4)
			if err != nil {
				t.Fatal(err)
			}
			streams[i] = s
		}
		big, _ := rt.Alloc1D("big", 3<<20)
		small, _ := rt.Alloc1D("small", 24<<10)
		xfers := []struct {
			s      *Stream
			b      *Buf
			off, n int64
			dir    XferDir
		}{
			{streams[0], big, 0, 3 << 20, ToSink},
			{streams[1], small, 0, 24 << 10, ToSink},
			{streams[0], big, 4096, 65 << 10, ToSource},
			{streams[1], small, 100, 777, ToSource},
			{streams[1], big, 1 << 20, 1, ToSink},
			{streams[0], small, 8 << 10, 16 << 10, ToSource},
		}
		for _, x := range xfers {
			if _, err := x.s.EnqueueXfer(x.b, x.off, x.n, x.dir); err != nil {
				t.Fatal(err)
			}
		}
		rt.ThreadSynchronize()
		return rt.LinkStats()
	}
	sim, real := ledger(ModeSim), ledger(ModeReal)
	if len(sim) != 2 || len(real) != 2 {
		t.Fatalf("ledgers hold %d (Sim) and %d (Real) link directions, want 2 each", len(sim), len(real))
	}
	for i := range sim {
		if sim[i] != real[i] {
			t.Errorf("direction %d: Sim %+v, Real %+v", i, sim[i], real[i])
		}
		if sim[i].Modeled == 0 {
			t.Errorf("direction %s→%s: no modeled wire time", sim[i].Src, sim[i].Dst)
		}
	}
}
