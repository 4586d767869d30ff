package core

import (
	"testing"
	"testing/quick"

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
