package core

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"hstreams/internal/coi"
	"hstreams/internal/metrics"
	"hstreams/internal/platform"
	"hstreams/internal/trace"
)

// spansOf returns rt's drained run as spans, failing the test if the
// flight recorder no longer holds all of it.
func spansOf(t *testing.T, rt *Runtime) []trace.Span {
	t.Helper()
	spans, err := rt.Spans()
	if err != nil {
		t.Fatal(err)
	}
	return spans
}

func simRuntime(t *testing.T, cards int) *Runtime {
	t.Helper()
	rt, err := Init(Config{Machine: platform.HSWPlusKNC(cards), Mode: ModeSim})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Fini)
	return rt
}

func realRuntime(t *testing.T, cards int) *Runtime {
	t.Helper()
	rt, err := Init(Config{Machine: platform.HSWPlusKNC(cards), Mode: ModeReal})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Fini)
	return rt
}

func TestOperandOverlap(t *testing.T) {
	rt := simRuntime(t, 0)
	b, err := rt.Alloc1D("b", 1000)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := rt.Alloc1D("c", 1000)
	cases := []struct {
		a, b Operand
		want bool
	}{
		{b.Range(0, 100, In), b.Range(50, 100, In), true},
		{b.Range(0, 100, In), b.Range(100, 100, In), false}, // touching, no overlap
		{b.Range(0, 100, In), c.Range(0, 100, In), false},   // different buffers
		{b.All(In), b.Range(999, 1, In), true},
		{b.Range(10, 0, In), b.Range(0, 100, In), false}, // empty range
	}
	for i, cse := range cases {
		if got := cse.a.overlaps(cse.b); got != cse.want {
			t.Errorf("case %d: overlaps = %v, want %v", i, got, cse.want)
		}
		if got := cse.b.overlaps(cse.a); got != cse.want {
			t.Errorf("case %d: overlaps not symmetric", i)
		}
	}
}

func TestOperandHazard(t *testing.T) {
	rt := simRuntime(t, 0)
	b, _ := rt.Alloc1D("b", 1000)
	r := b.Range(0, 100, In)
	w := b.Range(50, 100, Out)
	rw := b.Range(0, 100, InOut)
	r2 := b.Range(0, 100, In)
	if r.hazardWith(r2) {
		t.Error("read-read must not be a hazard")
	}
	if !r.hazardWith(w) || !w.hazardWith(r) {
		t.Error("RAW/WAR must be hazards")
	}
	if !w.hazardWith(w) {
		t.Error("WAW must be a hazard")
	}
	if !rw.hazardWith(r) {
		t.Error("InOut vs read must be a hazard")
	}
	far := b.Range(500, 10, Out)
	if r.hazardWith(far) {
		t.Error("disjoint ranges must not be hazards")
	}
}

func TestProxyResolve(t *testing.T) {
	rt := simRuntime(t, 0)
	a, _ := rt.Alloc1D("a", 100)
	b, _ := rt.Alloc1D("b", 200)
	if a.ProxyBase() == b.ProxyBase() {
		t.Fatal("buffers share a proxy base")
	}
	got, off, err := rt.Resolve(b.ProxyBase()+40, 10)
	if err != nil || got != b || off != 40 {
		t.Fatalf("Resolve = %v, %d, %v", got, off, err)
	}
	if _, _, err := rt.Resolve(b.ProxyBase()+199, 10); err == nil {
		t.Fatal("Resolve accepted a range crossing the buffer end")
	}
	if _, _, err := rt.Resolve(1<<60, 1); err == nil {
		t.Fatal("Resolve accepted an unmapped address")
	}
}

func TestProxyAddressesDisjoint(t *testing.T) {
	rt := simRuntime(t, 0)
	f := func(sizes []uint16) bool {
		type iv struct{ lo, hi uint64 }
		var ivs []iv
		for _, s := range sizes {
			size := int64(s%4096) + 1
			b, err := rt.Alloc1D("p", size)
			if err != nil {
				return false
			}
			ivs = append(ivs, iv{b.ProxyBase(), b.ProxyBase() + uint64(size)})
		}
		for i := range ivs {
			for j := i + 1; j < len(ivs); j++ {
				if ivs[i].lo < ivs[j].hi && ivs[j].lo < ivs[i].hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocValidation(t *testing.T) {
	rt := simRuntime(t, 0)
	if _, err := rt.Alloc1D("bad", 0); err != ErrBadBufferSize {
		t.Fatalf("zero size err = %v", err)
	}
	if _, err := rt.Alloc1D("bad", -5); err != ErrBadBufferSize {
		t.Fatalf("negative size err = %v", err)
	}
}

func TestSimBuffersHaveNoBacking(t *testing.T) {
	rt := simRuntime(t, 1)
	// Paper-scale allocation must not touch real memory.
	b, err := rt.Alloc1D("huge", 30000*30000*8)
	if err != nil {
		t.Fatal(err)
	}
	if b.HostBytes() != nil || b.HostFloat64s() != nil {
		t.Fatal("Sim-mode buffer has backing memory")
	}
}

func TestRealBufferInstances(t *testing.T) {
	rt := realRuntime(t, 1)
	b, f, err := rt.AllocFloat64("v", 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 16 || b.Size() != 128 {
		t.Fatalf("len = %d size = %d", len(f), b.Size())
	}
	f[3] = 7.5
	if b.HostFloat64s()[3] != 7.5 {
		t.Fatal("host view does not alias host instance")
	}
	host := rt.Host()
	card := rt.Card(0)
	if &b.instanceBytes(host)[0] != &b.host[0] {
		t.Fatal("host instance must alias source")
	}
	if &b.instanceBytes(card)[0] == &b.host[0] {
		t.Fatal("card instance must be distinct storage")
	}
	if len(b.instanceBytes(card)) != 128 {
		t.Fatalf("card instance len = %d", len(b.instanceBytes(card)))
	}
}

// holdCardInstances makes every card-instance creation that Alloc1D
// starts from now on wait until release is called. release also runs
// at cleanup, ahead of the runtime's Fini, so call this after the
// runtime is built.
func holdCardInstances(t *testing.T) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	prev := newCardInstance
	newCardInstance = func(p *coi.Process, size int) (*coi.Buffer, error) {
		<-gate
		return prev(p, size)
	}
	t.Cleanup(func() { newCardInstance = prev })
	t.Cleanup(release)
	return release
}

// awaitReclaim spins until b's reclamation has begun: the state flips
// to recycled before reclamation waits for the card instances.
func awaitReclaim(b *Buf) {
	for b.state.Load() != bufRecycled {
		runtime.Gosched()
	}
}

// TestAlloc1DReturnsBeforeCardInstances checks, with creation held
// open and no clock, that Alloc1D returns before its card instances
// exist, that the host instance is usable at once, and that a transfer
// enqueued meanwhile waits for its instance and then lands.
func TestAlloc1DReturnsBeforeCardInstances(t *testing.T) {
	rt := realRuntime(t, 2)
	release := holdCardInstances(t)
	b, err := rt.Alloc1D("b", 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(b.inst); i++ {
		select {
		case <-b.inst[i].ready:
			t.Fatalf("card %d instance exists before its creation was let through", i)
		default:
		}
	}
	for i := range b.HostBytes() {
		b.HostBytes()[i] = byte(i)
	}
	s, err := rt.StreamCreate(rt.Card(1), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	xfer, err := s.EnqueueXferAll(b, ToSink)
	if err != nil {
		t.Fatal(err)
	}
	release()
	if err := xfer.Wait(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.instanceBytes(rt.Card(1)), b.host) {
		t.Fatal("card 1 instance does not hold the transferred bytes")
	}
	if !bytes.Equal(b.instanceBytes(rt.Card(0)), make([]byte, 256)) {
		t.Fatal("untouched card 0 instance is not zero")
	}
}

// TestCardInstanceFailureFailsFirstUser destroys a card's process
// before Alloc1D: the allocation still succeeds, and the creation
// error becomes the error of every action that needs the instance,
// and so of Runtime.Err.
func TestCardInstanceFailureFailsFirstUser(t *testing.T) {
	rt := isoRuntime(t, ModeReal, 1)
	registerTestKernels(rt)
	s, err := rt.StreamCreate(rt.Card(0), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := rt.mets.buffersLive.Value()
	rt.procs[1].Destroy()
	b, err := rt.Alloc1D("b", 64)
	if err != nil {
		t.Fatalf("Alloc1D = %v; a card-side failure belongs to the first user", err)
	}
	xfer, err := s.EnqueueXferAll(b, ToSink)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := s.EnqueueCompute("scale", []int64{2}, []Operand{b.All(InOut)}, platform.Cost{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*Action{xfer, comp} {
		if err := a.Wait(); !errors.Is(err, coi.ErrProcessDown) || !strings.Contains(err.Error(), `instantiating "b"`) {
			t.Fatalf("%s: err = %v, want the instantiation failure", a.Kind(), err)
		}
	}
	if err := rt.Err(); !errors.Is(err, coi.ErrProcessDown) {
		t.Fatalf("Runtime.Err = %v, want the instantiation failure", err)
	}
	if err := b.Free(); err != nil {
		t.Fatal(err)
	}
	if got := rt.mets.buffersLive.Value(); got != base {
		t.Fatalf("buffers_live = %d after Free, want %d", got, base)
	}
}

// TestFreeAndFiniDuringCardCreation frees a buffer, and then
// finalizes the runtime, while card instances are still being
// created: reclamation waits for them and destroys them, so the pool
// block comes back, hstreams_buffers_live returns to baseline, and no
// goroutine outlives Fini.
func TestFreeAndFiniDuringCardCreation(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	reg := metrics.New()
	rt, err := Init(Config{Machine: platform.HSWPlusKNC(1), Mode: ModeReal, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Fini)
	base := rt.mets.buffersLive.Value()

	release := holdCardInstances(t)
	b, err := rt.Alloc1D("b", 4096)
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan error)
	go func() { freed <- b.Free() }()
	awaitReclaim(b)
	release()
	if err := <-freed; err != nil {
		t.Fatal(err)
	}
	if got := rt.mets.buffersLive.Value(); got != base {
		t.Fatalf("buffers_live = %d after Free, want %d", got, base)
	}
	// The instance went back to the pool: the next one is a hit.
	c, err := rt.Alloc1D("c", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.card(1); err != nil {
		t.Fatal(err)
	}
	if hits := reg.Total("hstreams_coi_pool_hits_total"); hits != 1 {
		t.Fatalf("pool hits = %v, want 1: the freed instance's block leaked", hits)
	}

	release = holdCardInstances(t)
	d, err := rt.Alloc1D("d", 4096)
	if err != nil {
		t.Fatal(err)
	}
	finished := make(chan struct{})
	go func() { rt.Fini(); close(finished) }()
	awaitReclaim(d)
	release()
	<-finished
	if got := rt.mets.buffersLive.Value(); got != base {
		t.Fatalf("buffers_live = %d after Fini, want %d", got, base)
	}
	n := runtime.NumGoroutine()
	for i := 0; i < 500 && n > goroutines; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > goroutines {
		t.Fatalf("%d goroutines after Fini, %d before Init", n, goroutines)
	}
}

// TestCardChurnDifferential runs the same two-card program twice —
// once on one long-lived scratch buffer per card, once allocating a
// fresh scratch buffer every step and freeing it with its users still
// in flight — and requires bit-identical results. Every churned step's
// first card compute lands while its instance may still be being
// created.
func TestCardChurnDifferential(t *testing.T) {
	const steps, n = 24, 32
	run := func(churn bool) []float64 {
		rt := isoRuntime(t, ModeReal, 2)
		registerTestKernels(rt)
		acc, fa, err := rt.AllocFloat64("acc", 2*n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fa {
			fa[i] = float64(i)
		}
		streams := make([]*Stream, 2)
		for c := range streams {
			if streams[c], err = rt.StreamCreate(rt.Card(c), 0, 4); err != nil {
				t.Fatal(err)
			}
		}
		scratch := make([]*Buf, 2)
		for i := 0; i < steps; i++ {
			for c, s := range streams {
				if churn || i == 0 {
					if scratch[c], err = rt.Alloc1D("scratch", n*8); err != nil {
						t.Fatal(err)
					}
				}
				tmp := scratch[c]
				off, ln := int64(c*n*8), int64(n*8)
				if _, err := s.EnqueueXfer(acc, off, ln, ToSink); err != nil {
					t.Fatal(err)
				}
				for _, k := range []struct {
					kernel string
					args   []int64
					ops    []Operand
				}{
					{"copy", nil, []Operand{acc.Range(off, ln, In), tmp.All(Out)}},
					{"affine", []int64{2, int64(i + c)}, []Operand{tmp.All(InOut)}},
					{"copy", nil, []Operand{tmp.All(In), acc.Range(off, ln, Out)}},
				} {
					if _, err := s.EnqueueCompute(k.kernel, k.args, k.ops, platform.Cost{}); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := s.EnqueueXfer(acc, off, ln, ToSource); err != nil {
					t.Fatal(err)
				}
				if churn {
					if err := tmp.Free(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		rt.ThreadSynchronize()
		if err := rt.Err(); err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), fa...)
	}
	base := run(false)
	churned := run(true)
	for i := range base {
		if base[i] != churned[i] {
			t.Fatalf("churned[%d] = %v, want %v — instance creation churn changed results", i, churned[i], base[i])
		}
	}
}

func TestFloatRangeOperand(t *testing.T) {
	rt := simRuntime(t, 0)
	b, _ := rt.Alloc1D("m", 800)
	o := b.FloatRange(10, 5, Out)
	if o.Off != 80 || o.Len != 40 || o.Acc != Out {
		t.Fatalf("FloatRange = %+v", o)
	}
	if !o.valid() {
		t.Fatal("in-range operand invalid")
	}
	if b.FloatRange(95, 10, In).valid() {
		t.Fatal("out-of-range operand valid")
	}
}

func TestAccessStrings(t *testing.T) {
	if In.String() != "in" || Out.String() != "out" || InOut.String() != "inout" {
		t.Fatal("access names")
	}
	if Access(9).String() == "" {
		t.Fatal("unknown access empty")
	}
	if In.writes() || !Out.writes() || !InOut.writes() {
		t.Fatal("writes() wrong")
	}
}
