package ompoffload

import (
	"testing"

	"hstreams/internal/core"
	"hstreams/internal/floatbits"
	"hstreams/internal/platform"
	"hstreams/internal/trace"
)

func newOMP(t *testing.T, mode core.Mode, v Version, cards int) *OMP {
	t.Helper()
	o, err := Init(platform.HSWPlusKNC(cards), mode, v)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Fini)
	return o
}

func cost(n int) platform.Cost {
	return platform.Cost{Kernel: platform.KDGEMM, Flops: 2 * float64(n) * float64(n) * float64(n), N: n}
}

func TestTargetRoundTripReal(t *testing.T) {
	o := newOMP(t, core.ModeReal, V40, 1)
	o.RT.RegisterKernel("scale", func(ctx *core.KernelCtx) {
		v := floatbits.Float64s(ctx.Ops[0])
		for i := range v {
			v[i] *= float64(ctx.Args[0])
		}
	})
	b, f, err := o.RT.AllocFloat64("v", 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f {
		f[i] = 1
	}
	if err := o.Target(0, "scale", []int64{4}, platform.Cost{}, MapAll(b, MapToFrom)); err != nil {
		t.Fatal(err)
	}
	// Target is synchronous: the result must already be visible.
	for i := range f {
		if f[i] != 4 {
			t.Fatalf("f[%d] = %v, want 4", i, f[i])
		}
	}
}

func TestHostFallback(t *testing.T) {
	o := newOMP(t, core.ModeReal, V40, 1)
	o.RT.RegisterKernel("inc", func(ctx *core.KernelCtx) {
		v := floatbits.Float64s(ctx.Ops[0])
		for i := range v {
			v[i]++
		}
	})
	b, f, _ := o.RT.AllocFloat64("v", 8)
	if err := o.Target(-1, "inc", nil, platform.Cost{}, MapAll(b, MapToFrom)); err != nil {
		t.Fatal(err)
	}
	if f[0] != 1 {
		t.Fatalf("host fallback result = %v", f[0])
	}
}

func TestV40TransfersNeverOverlapCompute(t *testing.T) {
	// The paper's key OpenMP 4.0 limitation: synchronous constructs
	// mean zero compute/transfer overlap.
	o := newOMP(t, core.ModeSim, V40, 1)
	b1, _ := o.RT.Alloc1D("a", 8<<20)
	b2, _ := o.RT.Alloc1D("b", 8<<20)
	if err := o.Target(0, "k", nil, cost(2000), MapAll(b1, MapToFrom)); err != nil {
		t.Fatal(err)
	}
	if err := o.Target(0, "k", nil, cost(2000), MapAll(b2, MapToFrom)); err != nil {
		t.Fatal(err)
	}
	spans, err := o.RT.Spans()
	if err != nil {
		t.Fatal(err)
	}
	if ov := trace.OverlapTime(spans, trace.Compute, trace.Transfer); ov != 0 {
		t.Fatalf("V40 overlapped compute and transfer by %v", ov)
	}
}

func TestV45NowaitOverlaps(t *testing.T) {
	o := newOMP(t, core.ModeSim, V45, 2)
	// Asymmetric work so one device computes while the other is
	// still transferring.
	b1, _ := o.RT.Alloc1D("a", 32<<20)
	b2, _ := o.RT.Alloc1D("b", 1<<20)
	if _, err := o.TargetNowait(0, "k", nil, cost(3000), nil, MapAll(b1, MapToFrom)); err != nil {
		t.Fatal(err)
	}
	if _, err := o.TargetNowait(1, "k", nil, cost(500), nil, MapAll(b2, MapToFrom)); err != nil {
		t.Fatal(err)
	}
	o.Taskwait()
	spans, err := o.RT.Spans()
	if err != nil {
		t.Fatal(err)
	}
	if ov := trace.OverlapTime(spans, trace.Compute, trace.Transfer); ov == 0 {
		t.Fatal("V45 nowait on two devices produced no overlap")
	}
}

func TestV45DependOrders(t *testing.T) {
	o := newOMP(t, core.ModeSim, V45, 1)
	a, _ := o.RT.Alloc1D("a", 1<<20)
	b, _ := o.RT.Alloc1D("b", 1<<20)
	first, err := o.TargetNowait(0, "k", nil, cost(2000), nil, MapAll(a, MapToFrom))
	if err != nil {
		t.Fatal(err)
	}
	second, err := o.TargetNowait(0, "k", nil, cost(500), []*core.Action{first}, MapAll(b, MapToFrom))
	if err != nil {
		t.Fatal(err)
	}
	o.Taskwait()
	_, e1 := first.Times()
	s2, _ := second.Times()
	if s2 < e1 {
		t.Fatalf("depend clause ignored: %v < %v", s2, e1)
	}
}

func TestV40RejectsNowait(t *testing.T) {
	o := newOMP(t, core.ModeSim, V40, 1)
	b, _ := o.RT.Alloc1D("a", 1<<20)
	if _, err := o.TargetNowait(0, "k", nil, cost(100), nil, MapAll(b, MapToFrom)); err != ErrNeed45 {
		t.Fatalf("err = %v, want ErrNeed45", err)
	}
	if _, err := o.TargetEnterData(0, true, MapAll(b, MapTo)); err != ErrNeed45 {
		t.Fatalf("err = %v, want ErrNeed45", err)
	}
	if _, err := o.TargetExitData(0, true, MapAll(b, MapFrom)); err != ErrNeed45 {
		t.Fatalf("err = %v, want ErrNeed45", err)
	}
}

func TestMarshalingSlowsTransfers(t *testing.T) {
	// The offload runtime's staging path costs MarshalHops wire
	// trips; hStreams moves the same bytes once.
	run := func(hops int) int64 {
		o := newOMP(t, core.ModeSim, V40, 1)
		o.MarshalHops = hops
		b, _ := o.RT.Alloc1D("a", 16<<20)
		if _, err := o.TargetEnterData(0, false, MapAll(b, MapTo)); err != nil {
			t.Fatal(err)
		}
		return int64(o.RT.SimLinkBusy(1, 0))
	}
	t1 := run(1)
	t5 := run(5)
	if t5 != 5*t1 {
		t.Fatalf("marshal hops: busy %v vs %v, want 5×", t5, t1)
	}
}

func TestEnterExitData(t *testing.T) {
	o := newOMP(t, core.ModeReal, V40, 1)
	o.RT.RegisterKernel("inc", func(ctx *core.KernelCtx) {
		v := floatbits.Float64s(ctx.Ops[0])
		for i := range v {
			v[i]++
		}
	})
	o.MarshalHops = 1
	b, f, _ := o.RT.AllocFloat64("v", 8)
	f[0] = 10
	if _, err := o.TargetEnterData(0, false, MapAll(b, MapTo)); err != nil {
		t.Fatal(err)
	}
	// Alloc-only maps inside the region: data already resident.
	if err := o.Target(0, "inc", nil, platform.Cost{}, MapAll(b, MapAlloc)); err != nil {
		t.Fatal(err)
	}
	if _, err := o.TargetExitData(0, false, MapAll(b, MapFrom)); err != nil {
		t.Fatal(err)
	}
	if f[0] != 11 {
		t.Fatalf("f[0] = %v, want 11", f[0])
	}
}

func TestDeviceValidation(t *testing.T) {
	o := newOMP(t, core.ModeSim, V40, 1)
	if o.DeviceCount() != 1 {
		t.Fatal("device count")
	}
	if err := o.Target(7, "k", nil, cost(10)); err != ErrBadDevice {
		t.Fatalf("err = %v, want ErrBadDevice", err)
	}
}
