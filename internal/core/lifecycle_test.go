package core

import (
	"errors"
	"sync"
	"testing"

	"hstreams/internal/metrics"
	"hstreams/internal/platform"
)

// isoRuntime builds a runtime with a private metrics registry so the
// lifecycle tests can assert absolute counter values without
// interference from other tests sharing metrics.Default().
func isoRuntime(t *testing.T, mode Mode, cards int) *Runtime {
	t.Helper()
	rt, err := Init(Config{
		Machine: platform.HSWPlusKNC(cards),
		Mode:    mode,
		Metrics: metrics.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Fini)
	return rt
}

// TestFreeReclaimsImmediately checks that freeing an idle buffer
// recycles it on the spot: live count drops, proxy range returns to
// the allocator, and reuse gets the recycled address.
func TestFreeReclaimsImmediately(t *testing.T) {
	rt := isoRuntime(t, ModeReal, 1)
	a, err := rt.Alloc1D("a", 4096)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rt.Alloc1D("b", 4096)
	if err != nil {
		t.Fatal(err)
	}
	proxyA := a.ProxyBase()
	live0 := rt.mets.buffersLive.Value()
	if err := a.Free(); err != nil {
		t.Fatal(err)
	}
	if !a.Freed() {
		t.Fatal("Freed() = false after Free")
	}
	if got := rt.mets.buffersLive.Value(); got != live0-1 {
		t.Fatalf("buffers_live = %d after Free, want %d", got, live0-1)
	}
	if rt.mets.reclaimDeferred.Value() != 0 {
		t.Fatal("idle free must not defer reclamation")
	}
	// The recycled proxy range is handed to the next same-size alloc.
	c, err := rt.Alloc1D("c", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if c.ProxyBase() != proxyA {
		t.Fatalf("reused buffer proxy = %#x, want recycled %#x", c.ProxyBase(), proxyA)
	}
	if c.ProxyBase() == b.ProxyBase() {
		t.Fatal("recycled range collides with a live buffer")
	}
}

// TestDoubleFree pins the error contract: the second Free (and any
// later one) fails with ErrBufferFreed.
func TestDoubleFree(t *testing.T) {
	rt := simRuntime(t, 0)
	b, err := rt.Alloc1D("b", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Free(); err != nil {
		t.Fatal(err)
	}
	if err := b.Free(); !errors.Is(err, ErrBufferFreed) {
		t.Fatalf("second Free = %v, want ErrBufferFreed", err)
	}
}

// TestUseAfterFreeRejected pins the guard: enqueuing against a freed
// buffer fails with ErrBufferFreed instead of touching freed state.
func TestUseAfterFreeRejected(t *testing.T) {
	rt := realRuntime(t, 0)
	registerTestKernels(rt)
	b, err := rt.Alloc1D("b", 64)
	if err != nil {
		t.Fatal(err)
	}
	s, err := rt.StreamCreate(rt.Host(), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Free(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnqueueCompute("scale", []int64{2}, []Operand{b.All(InOut)}, platform.Cost{}); !errors.Is(err, ErrBufferFreed) {
		t.Fatalf("EnqueueCompute on freed buffer = %v, want ErrBufferFreed", err)
	}
	if _, err := s.EnqueueXferAll(b, ToSink); !errors.Is(err, ErrBufferFreed) {
		t.Fatalf("EnqueueXferAll on freed buffer = %v, want ErrBufferFreed", err)
	}
}

// TestDeferredReclamation frees a buffer while an action is still
// reading it: reclamation must wait for retirement (the dependence
// index still holds the in-flight reader), then complete.
func TestDeferredReclamation(t *testing.T) {
	rt := isoRuntime(t, ModeReal, 0)
	registerTestKernels(rt)
	src, fs, err := rt.AllocFloat64("src", 8)
	if err != nil {
		t.Fatal(err)
	}
	dst, fd, err := rt.AllocFloat64("dst", 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fs {
		fs[i] = float64(i + 1)
	}
	s, err := rt.StreamCreate(rt.Host(), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	// slowcopy holds src in flight for ~50ms.
	if _, err := s.EnqueueCompute("slowcopy", []int64{50}, []Operand{src.All(In), dst.All(Out)}, platform.Cost{}); err != nil {
		t.Fatal(err)
	}
	if err := src.Free(); err != nil {
		t.Fatal(err)
	}
	if rt.mets.reclaimDeferred.Value() != 1 {
		t.Fatalf("reclaim_deferred = %d, want 1 (reader still in flight)", rt.mets.reclaimDeferred.Value())
	}
	// Freed-but-not-reclaimed: new work is rejected immediately...
	if _, err := s.EnqueueCompute("scale", []int64{2}, []Operand{src.All(InOut)}, platform.Cost{}); !errors.Is(err, ErrBufferFreed) {
		t.Fatalf("enqueue during free-pending = %v, want ErrBufferFreed", err)
	}
	// ...but the in-flight reader completes against intact data.
	if err := s.Synchronize(); err != nil {
		t.Fatal(err)
	}
	for i := range fd {
		if fd[i] != float64(i+1) {
			t.Fatalf("dst[%d] = %v, want %v — reader saw reclaimed memory", i, fd[i], i+1)
		}
	}
	if got := rt.mets.proxyRecycled.Value(); got != 1 {
		t.Fatalf("proxy_recycled = %d after retirement, want 1", got)
	}
}

// TestFreeReuseDifferential runs the same dependent-chain schedule
// twice — once on long-lived buffers, once freeing and reallocating
// the scratch buffer between every step — and requires bit-identical
// results. Free/reuse churn must be invisible to FIFO semantics.
// Run with -race: the recycle path races against retirement.
func TestFreeReuseDifferential(t *testing.T) {
	const steps = 40
	run := func(churn bool) []float64 {
		rt := realRuntime(t, 1)
		registerTestKernels(rt)
		acc, fa, err := rt.AllocFloat64("acc", 32)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fa {
			fa[i] = 1
		}
		s, err := rt.StreamCreate(rt.Card(0), 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.EnqueueXferAll(acc, ToSink); err != nil {
			t.Fatal(err)
		}
		scratch, _, err := rt.AllocFloat64("scratch", 32)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			// acc = acc*2 + i, staged through a copy via scratch so the
			// chain exercises multi-buffer dependences.
			if _, err := s.EnqueueCompute("copy", nil, []Operand{acc.All(In), scratch.All(Out)}, platform.Cost{}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.EnqueueCompute("affine", []int64{2, int64(i)}, []Operand{scratch.All(InOut)}, platform.Cost{}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.EnqueueCompute("copy", nil, []Operand{scratch.All(In), acc.All(Out)}, platform.Cost{}); err != nil {
				t.Fatal(err)
			}
			if churn {
				// Free with the copy possibly still in flight, then
				// immediately reallocate — the new scratch typically
				// recycles the freed proxy range.
				if err := scratch.Free(); err != nil {
					t.Fatal(err)
				}
				if scratch, _, err = rt.AllocFloat64("scratch", 32); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := s.EnqueueXferAll(acc, ToSource); err != nil {
			t.Fatal(err)
		}
		if err := s.Synchronize(); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(fa))
		copy(out, fa)
		rt.Fini()
		return out
	}
	base := run(false)
	churned := run(true)
	for i := range base {
		if base[i] != churned[i] {
			t.Fatalf("churned[%d] = %v, want %v — free/reuse changed results", i, churned[i], base[i])
		}
	}
}

// TestSynchronizeReleasesOperands pins finish's order: an action
// releases its operand buffers before it leaves its stream's window,
// so a Free after Synchronize reclaims at once and
// hstreams_buffers_live is back to baseline. Each round stalls the
// release half-way — freeing z, the first operand, starts a
// reclamation that blocks on a stream lock the test holds — and
// checks that the action has not left the window while x, the second
// operand, is still referenced.
func TestSynchronizeReleasesOperands(t *testing.T) {
	rt := isoRuntime(t, ModeReal, 0)
	s, err := rt.StreamCreate(rt.Host(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := rt.StreamCreate(rt.Host(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := rt.mets.buffersLive.Value()
	for round := 0; round < 20; round++ {
		z, err := rt.Alloc1D("z", 64)
		if err != nil {
			t.Fatal(err)
		}
		x, err := rt.Alloc1D("x", 64)
		if err != nil {
			t.Fatal(err)
		}
		gate := make(chan struct{})
		rt.RegisterKernel("hold", func(*KernelCtx) { <-gate })
		if _, err := s.EnqueueCompute("hold", nil, []Operand{z.All(In), x.All(In)}, platform.Cost{}); err != nil {
			t.Fatal(err)
		}
		if err := z.Free(); err != nil {
			t.Fatal(err)
		}
		idle.mu.Lock()
		close(gate)
		awaitReclaim(z)
		s.mu.Lock()
		retired := len(s.inflight) == 0
		s.mu.Unlock()
		held := x.refs.Load()
		idle.mu.Unlock()
		if retired && held != 0 {
			t.Fatalf("round %d: the action left its stream's window still holding %d reference(s) on x", round, held)
		}
		if err := s.Synchronize(); err != nil {
			t.Fatal(err)
		}
		if err := x.Free(); err != nil {
			t.Fatal(err)
		}
		if got := rt.mets.buffersLive.Value(); got != base {
			t.Fatalf("round %d: buffers_live = %d after Synchronize and Free, want %d", round, got, base)
		}
	}
}

// TestConcurrentFreeEnqueue races Free against enqueues from another
// goroutine: every enqueue must either be admitted (and run against
// intact data) or fail with ErrBufferFreed — never crash or corrupt.
func TestConcurrentFreeEnqueue(t *testing.T) {
	for round := 0; round < 20; round++ {
		rt := realRuntime(t, 0)
		registerTestKernels(rt)
		b, err := rt.Alloc1D("b", 1024)
		if err != nil {
			t.Fatal(err)
		}
		s, err := rt.StreamCreate(rt.Host(), 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, err := s.EnqueueCompute("scale", []int64{1}, []Operand{b.All(InOut)}, platform.Cost{})
				if err != nil {
					if !errors.Is(err, ErrBufferFreed) {
						t.Errorf("enqueue: %v", err)
					}
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			if err := b.Free(); err != nil {
				t.Errorf("Free: %v", err)
			}
		}()
		wg.Wait()
		if err := s.Synchronize(); err != nil {
			t.Fatal(err)
		}
		rt.Fini()
	}
}

// TestStreamChurnUnderStatus destroys streams while another goroutine
// snapshots, synchronizes and frees against the runtime. Status,
// ThreadSynchronize and a buffer's reclamation iterate the stream table
// after unlocking, so Destroy must publish a new table, never edit the
// one they may hold: an edit in place shows here as a race report or a
// nil stream.
func TestStreamChurnUnderStatus(t *testing.T) {
	rt := isoRuntime(t, ModeReal, 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			var group [4]*Stream
			for j := range group {
				s, err := rt.StreamCreate(rt.Host(), 0, 1)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := s.EnqueueMarker(); err != nil {
					t.Error(err)
					return
				}
				group[j] = s
			}
			for _, s := range group {
				if err := s.Destroy(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for churning := true; churning; {
		select {
		case <-done:
			churning = false
		default:
		}
		rt.Status()
		rt.ThreadSynchronize()
		b, err := rt.Alloc1D("b", 64)
		if err != nil {
			t.Fatal(err)
		}
		b.Free()
	}
	if n := len(rt.Status().Streams); n != 0 {
		t.Fatalf("Status lists %d streams after every stream was destroyed", n)
	}
}

// TestFiniFreesRemaining pins the leak-check contract: Fini reclaims
// every never-freed buffer, returning hstreams_buffers_live to its
// pre-Init baseline.
func TestFiniFreesRemaining(t *testing.T) {
	rt, err := Init(Config{Machine: platform.HSWPlusKNC(0), Mode: ModeReal, Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	base := rt.mets.buffersLive.Value()
	for i := 0; i < 5; i++ {
		if _, err := rt.Alloc1D("b", 256); err != nil {
			t.Fatal(err)
		}
	}
	if got := rt.mets.buffersLive.Value(); got != base+5 {
		t.Fatalf("buffers_live = %d, want %d", got, base+5)
	}
	rt.Fini()
	if got := rt.mets.buffersLive.Value(); got != base {
		t.Fatalf("buffers_live after Fini = %d, want baseline %d", got, base)
	}
}
