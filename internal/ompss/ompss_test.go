package ompss

import (
	"testing"
	"time"

	"hstreams/internal/core"
	"hstreams/internal/floatbits"
	"hstreams/internal/kernels"
	"hstreams/internal/platform"
	"hstreams/internal/trace"
)

func newRT(t *testing.T, backend Backend, mode core.Mode, cards int) *Runtime {
	t.Helper()
	r, err := Init(Config{
		Machine: platform.HSWPlusKNC(cards),
		Mode:    mode,
		Backend: backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Fini)
	return r
}

// makespan returns the schedule length of everything r executed.
func makespan(t *testing.T, r *Runtime) time.Duration {
	t.Helper()
	spans, err := r.Core().Spans()
	if err != nil {
		t.Fatal(err)
	}
	return trace.Makespan(spans)
}

func cost(n int) platform.Cost {
	return platform.Cost{Kernel: platform.KDGEMM, Flops: 2 * float64(n) * float64(n) * float64(n), N: n}
}

func TestRealDataflowCorrectness(t *testing.T) {
	// A chain of dependent affine tasks across a 2-card machine with
	// automatic data movement must match sequential execution.
	r := newRT(t, BackendHStreams, core.ModeReal, 2)
	kernels.Register(r.Core())
	r.Core().RegisterKernel("affine", func(ctx *core.KernelCtx) {
		v := floatbits.Float64s(ctx.Ops[0])
		m, c := float64(ctx.Args[0]), float64(ctx.Args[1])
		for i := range v {
			v[i] = v[i]*m + c
		}
	})
	reg, err := r.CreateData(16 * 8)
	if err != nil {
		t.Fatal(err)
	}
	host := reg.Buf().HostFloat64s()
	for i := range host {
		host[i] = 1
	}
	// x = ((1*2+1)*3+2)*2+5 = 27
	steps := [][2]int64{{2, 1}, {3, 2}, {2, 5}}
	want := 1.0
	for _, s := range steps {
		if _, err := r.Submit("affine", s[:], []Arg{{reg, InOut}}, platform.Cost{}); err != nil {
			t.Fatal(err)
		}
		want = want*float64(s[0]) + float64(s[1])
	}
	r.Taskwait()
	if err := r.SyncToHost(reg); err != nil {
		t.Fatal(err)
	}
	if err := r.Core().Err(); err != nil {
		t.Fatal(err)
	}
	for i := range host {
		if host[i] != want {
			t.Fatalf("host[%d] = %v, want %v", i, host[i], want)
		}
	}
}

func TestRealIndependentTasksProduceCorrectResults(t *testing.T) {
	r := newRT(t, BackendHStreams, core.ModeReal, 2)
	r.Core().RegisterKernel("setval", func(ctx *core.KernelCtx) {
		v := floatbits.Float64s(ctx.Ops[0])
		for i := range v {
			v[i] = float64(ctx.Args[0])
		}
	})
	var regs []*Region
	for i := 0; i < 6; i++ {
		reg, err := r.CreateData(8 * 8)
		if err != nil {
			t.Fatal(err)
		}
		regs = append(regs, reg)
		if _, err := r.Submit("setval", []int64{int64(10 + i)}, []Arg{{reg, Out}}, platform.Cost{}); err != nil {
			t.Fatal(err)
		}
	}
	r.Taskwait()
	for i, reg := range regs {
		if err := r.SyncToHost(reg); err != nil {
			t.Fatal(err)
		}
		if got := reg.Buf().HostFloat64s()[0]; got != float64(10+i) {
			t.Fatalf("region %d = %v, want %d", i, got, 10+i)
		}
	}
}

func TestDependenceOrderInSim(t *testing.T) {
	r := newRT(t, BackendHStreams, core.ModeSim, 2)
	reg, _ := r.CreateData(8 << 20)
	t1, err := r.Submit("k", nil, []Arg{{reg, InOut}}, cost(2000))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := r.Submit("k", nil, []Arg{{reg, InOut}}, cost(1000))
	if err != nil {
		t.Fatal(err)
	}
	r.Taskwait()
	_, e1 := t1.Act.Times()
	s2, _ := t2.Act.Times()
	if s2 < e1 {
		t.Fatalf("RAW/WAW dependence violated: %v < %v", s2, e1)
	}
}

func TestAffinityScheduling(t *testing.T) {
	// Once a region lives on a device, dependent tasks should stay
	// there rather than bouncing data around.
	r := newRT(t, BackendHStreams, core.ModeSim, 2)
	reg, _ := r.CreateData(4 << 20)
	first, _ := r.Submit("k", nil, []Arg{{reg, InOut}}, cost(1000))
	for i := 0; i < 5; i++ {
		tk, err := r.Submit("k", nil, []Arg{{reg, InOut}}, cost(1000))
		if err != nil {
			t.Fatal(err)
		}
		if tk.Dev != first.Dev {
			t.Fatalf("task %d bounced to device %d (data on %d)", i, tk.Dev, first.Dev)
		}
	}
	r.Taskwait()
}

func TestIndependentRegionsSpreadAcrossDevices(t *testing.T) {
	r := newRT(t, BackendHStreams, core.ModeSim, 2)
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		reg, _ := r.CreateData(1 << 20)
		tk, err := r.Submit("k", nil, []Arg{{reg, Out}}, cost(500))
		if err != nil {
			t.Fatal(err)
		}
		seen[tk.Dev] = true
	}
	r.Taskwait()
	if len(seen) != 2 {
		t.Fatalf("independent tasks used %d devices, want 2", len(seen))
	}
}

// toCardModeled is the modeled wire time charged to the host→card
// links.
func toCardModeled(rt *core.Runtime) (d time.Duration) {
	for _, l := range rt.LinkStats() {
		if l.Src == rt.Host().Spec().Name {
			d += l.Modeled
		}
	}
	return d
}

func TestAutomaticTransfersInserted(t *testing.T) {
	// The user never enqueues a transfer; the runtime must.
	r := newRT(t, BackendHStreams, core.ModeSim, 1)
	reg, _ := r.CreateData(8 << 20)
	if _, err := r.Submit("k", nil, []Arg{{reg, InOut}}, cost(1000)); err != nil {
		t.Fatal(err)
	}
	r.Taskwait()
	if toCardModeled(r.Core()) == 0 {
		t.Fatal("no H2D transfer was inserted for stale device data")
	}
}

func TestWriteOnlySkipsStaging(t *testing.T) {
	r := newRT(t, BackendHStreams, core.ModeSim, 1)
	reg, _ := r.CreateData(8 << 20)
	if _, err := r.Submit("k", nil, []Arg{{reg, Out}}, cost(1000)); err != nil {
		t.Fatal(err)
	}
	r.Taskwait()
	if toCardModeled(r.Core()) != 0 {
		t.Fatal("write-only operand was staged to the device")
	}
}

func TestTaskOverheadCharged(t *testing.T) {
	run := func(overhead time.Duration) time.Duration {
		r, err := Init(Config{
			Machine:         platform.HSWPlusKNC(1),
			Mode:            core.ModeSim,
			Backend:         BackendHStreams,
			TaskOverhead:    overhead,
			DispatchLatency: time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Fini()
		reg, _ := r.CreateData(1 << 16)
		for i := 0; i < 50; i++ {
			if _, err := r.Submit("k", nil, []Arg{{reg, InOut}}, cost(64)); err != nil {
				t.Fatal(err)
			}
		}
		r.Taskwait()
		return makespan(t, r)
	}
	cheap := run(time.Microsecond)
	costly := run(500 * time.Microsecond)
	if costly <= cheap {
		t.Fatalf("task overhead has no effect: %v vs %v", costly, cheap)
	}
}

func TestCUDABackendRejectsRealMode(t *testing.T) {
	if _, err := Init(Config{
		Machine: platform.HSWPlusK40(1),
		Mode:    core.ModeReal,
		Backend: BackendCUDA,
	}); err != ErrCUDARealMode {
		t.Fatalf("err = %v, want ErrCUDARealMode", err)
	}
}

func TestCUDABackendDependences(t *testing.T) {
	r, err := Init(Config{
		Machine: platform.HSWPlusK40(1),
		Mode:    core.ModeSim,
		Backend: BackendCUDA,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Fini()
	// tA writes A, tB writes B (different streams via round-robin);
	// tC reads both, so one of its dependences is necessarily in
	// another stream and must be enforced with explicit events.
	regA, err := r.CreateData(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	regB, _ := r.CreateData(4 << 20)
	tA, err := r.Submit("k", nil, []Arg{{regA, Out}}, cost(1500))
	if err != nil {
		t.Fatal(err)
	}
	tB, err := r.Submit("k", nil, []Arg{{regB, Out}}, cost(1500))
	if err != nil {
		t.Fatal(err)
	}
	tC, err := r.Submit("k", nil, []Arg{{regA, In}, {regB, In}, {regA, InOut}}, cost(700))
	if err != nil {
		t.Fatal(err)
	}
	r.Taskwait()
	_, eA := tA.Act.Times()
	_, eB := tB.Act.Times()
	sC, _ := tC.Act.Times()
	if sC < eA || sC < eB {
		t.Fatalf("CUDA backend dependence violated: C starts %v, A ends %v, B ends %v", sC, eA, eB)
	}
	// The explicit enforcement must show up as event API traffic.
	if r.cu.API.Count("cudaEventRecord") == 0 || r.cu.API.Count("cudaStreamWaitEvent") == 0 {
		t.Fatalf("no explicit CUDA event synchronization was issued: %s", r.cu.API.String())
	}
}

func TestBackendComparisonHStreamsFaster(t *testing.T) {
	// The paper's §IV result: for the same task graph, the hStreams
	// back end beats the CUDA Streams back end because dependences
	// ride on the FIFO semantic instead of explicit events and
	// strict FIFO queues. (The full 4K×4K matmul reproduction lives
	// in the benchmark harness; this guards the direction.)
	run := func(b Backend) time.Duration {
		r, err := Init(Config{
			Machine: platform.HSWPlusKNC(1), // same hardware for both
			Mode:    core.ModeSim,
			Backend: b,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Fini()
		// 2×2-tiled matmul task graph (the paper's case): C_ij
		// accumulates over k, A/B tiles shared between tasks.
		const nt = 2
		var a, bb, c [nt][nt]*Region
		for i := 0; i < nt; i++ {
			for j := 0; j < nt; j++ {
				a[i][j], _ = r.CreateData(8 << 20)
				bb[i][j], _ = r.CreateData(8 << 20)
				c[i][j], _ = r.CreateData(8 << 20)
			}
		}
		for i := 0; i < nt; i++ {
			for j := 0; j < nt; j++ {
				for k := 0; k < nt; k++ {
					if _, err := r.Submit("dgemm", nil,
						[]Arg{{a[i][k], In}, {bb[k][j], In}, {c[i][j], InOut}}, cost(2048)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		r.Taskwait()
		return makespan(t, r)
	}
	hs := run(BackendHStreams)
	cu := run(BackendCUDA)
	if hs >= cu {
		t.Fatalf("hStreams backend (%v) not faster than CUDA backend (%v)", hs, cu)
	}
}

func TestSubmitValidation(t *testing.T) {
	r := newRT(t, BackendHStreams, core.ModeSim, 1)
	if _, err := r.Submit("k", nil, nil, cost(10)); err != ErrBadAccess {
		t.Fatalf("err = %v, want ErrBadAccess", err)
	}
	r.Fini()
	reg := &Region{r: r, validOn: map[int]bool{}}
	if _, err := r.Submit("k", nil, []Arg{{reg, In}}, cost(10)); err != ErrFinished {
		t.Fatalf("err = %v, want ErrFinished", err)
	}
}
