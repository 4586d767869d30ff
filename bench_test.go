// Benchmarks regenerating every table and figure in the paper's
// evaluation. Simulated (virtual-clock) benchmarks report the modeled
// metric the paper plots — GFlop/s, seconds, or speedup — as custom
// benchmark metrics; wall-clock ns/op for those is just harness time.
// The Real* benchmarks at the bottom measure this implementation
// itself (enqueue overhead, kernel rates) on the actual machine.
//
// Run: go test -bench=. -benchmem
package hstreams_test

import (
	"fmt"
	"testing"

	"hstreams/internal/app"
	"hstreams/internal/blas"
	"hstreams/internal/chol"
	"hstreams/internal/core"
	"hstreams/internal/kernels"
	"hstreams/internal/magma"
	"hstreams/internal/matmul"
	"hstreams/internal/mklao"
	"hstreams/internal/platform"
	"hstreams/internal/solver"
	"hstreams/internal/stencil"
	"hstreams/internal/trace"
	"hstreams/internal/workload"
)

func simApp(b *testing.B, m *platform.Machine, hostStreams int) *app.App {
	b.Helper()
	a, err := app.Init(app.Options{
		Machine:        m,
		Mode:           core.ModeSim,
		StreamsPerCard: 4,
		HostStreams:    hostStreams,
	})
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkFig3Models reproduces the Fig. 3 performance row: the same
// 10 000² tiled matmul in every model's dialect on one KNC.
func BenchmarkFig3Models(b *testing.B) {
	cases := []struct {
		name string
		run  func() (matmul.VariantResult, error)
	}{
		{"hStreams", func() (matmul.VariantResult, error) {
			return matmul.HStreamsVariant(core.ModeSim, 10000, 2000, 4, false)
		}},
		{"CUDA", func() (matmul.VariantResult, error) { return matmul.CUDAVariant(core.ModeSim, 10000, 2000, 4, false) }},
		{"OMP40untiled", func() (matmul.VariantResult, error) { return matmul.OMP40UntiledVariant(core.ModeSim, 10000, false) }},
		{"OMP40tiled", func() (matmul.VariantResult, error) {
			return matmul.OMP40TiledVariant(core.ModeSim, 10000, 2000, false)
		}},
		{"OMP45", func() (matmul.VariantResult, error) {
			return matmul.OMP45TiledVariant(core.ModeSim, 10000, 2000, false)
		}},
		{"OmpSs", func() (matmul.VariantResult, error) { return matmul.OmpSsVariant(core.ModeSim, 10000, 2000, false) }},
		{"OpenCL", func() (matmul.VariantResult, error) { return matmul.OpenCLVariant(core.ModeSim, 10000, 2000, 4, false) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var last matmul.VariantResult
			for i := 0; i < b.N; i++ {
				res, err := c.run()
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.GFlops, "modelGF/s")
			b.ReportMetric(float64(last.UniqueAPIs), "uniqueAPIs")
		})
	}
}

// BenchmarkFig6Matmul reproduces Fig. 6's configurations at one
// representative size (the sweep lives in cmd/hsbench -fig 6).
func BenchmarkFig6Matmul(b *testing.B) {
	const n, tile = 19200, 2400
	cases := []struct {
		name    string
		machine func() *platform.Machine
		host    bool
		balance bool
	}{
		{"HSW+2KNC", func() *platform.Machine { return platform.HSWPlusKNC(2) }, true, true},
		{"HSW+1KNC", func() *platform.Machine { return platform.HSWPlusKNC(1) }, true, true},
		{"1KNC_offload", func() *platform.Machine { return platform.HSWPlusKNC(1) }, false, false},
		{"HSW_native", func() *platform.Machine { return platform.HSWPlusKNC(0) }, true, true},
		{"IVB+2KNC_bal", func() *platform.Machine { return platform.IVBPlusKNC(2) }, true, true},
		{"IVB+2KNC_nobal", func() *platform.Machine { return platform.IVBPlusKNC(2) }, true, false},
		{"IVB+1KNC_bal", func() *platform.Machine { return platform.IVBPlusKNC(1) }, true, true},
		{"IVB_native", func() *platform.Machine { return platform.IVBPlusKNC(0) }, true, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var g float64
			for i := 0; i < b.N; i++ {
				hostStreams := 0
				if c.host {
					hostStreams = 3
				}
				a := simApp(b, c.machine(), hostStreams)
				res, err := matmul.Run(a, matmul.Config{N: n, Tile: tile, UseHost: c.host, LoadBalance: c.balance})
				a.Fini()
				if err != nil {
					b.Fatal(err)
				}
				g = res.GFlops
			}
			b.ReportMetric(g, "modelGF/s")
		})
	}
}

// BenchmarkFig7Cholesky reproduces Fig. 7's implementations at one
// representative size.
func BenchmarkFig7Cholesky(b *testing.B) {
	const n, tile = 24000, 2400
	cases := []struct {
		name string
		run  func() (float64, error)
	}{
		{"hStr_HSW+2KNC", func() (float64, error) {
			a := simApp(b, platform.HSWPlusKNC(2), 4)
			defer a.Fini()
			r, err := chol.Run(a, chol.Config{N: n, Tile: tile, UseHost: true, Panel: chol.PanelHost})
			return r.GFlops, err
		}},
		{"MKLAO_HSW+2KNC", func() (float64, error) {
			r, err := mklao.Dpotrf(platform.HSWPlusKNC(2), core.ModeSim, n, false, 0)
			return r.GFlops, err
		}},
		{"Magma_HSW+2KNC", func() (float64, error) {
			r, err := magma.Dpotrf(platform.HSWPlusKNC(2), core.ModeSim, n, false, 0)
			return r.GFlops, err
		}},
		{"hStr_HSW+1KNC", func() (float64, error) {
			a := simApp(b, platform.HSWPlusKNC(1), 4)
			defer a.Fini()
			r, err := chol.Run(a, chol.Config{N: n, Tile: tile, UseHost: true, Panel: chol.PanelHost})
			return r.GFlops, err
		}},
		{"OmpSs_HSW+1KNC", func() (float64, error) {
			r, err := chol.RunOmpSs(platform.HSWPlusKNC(1), core.ModeSim, n, tile, false, 0)
			return r.GFlops, err
		}},
		{"hStr_1KNC_offload", func() (float64, error) {
			a := simApp(b, platform.HSWPlusKNC(1), 0)
			defer a.Fini()
			r, err := chol.Run(a, chol.Config{N: n, Tile: tile, Panel: chol.PanelCard})
			return r.GFlops, err
		}},
		{"HSW_native", func() (float64, error) {
			r, err := chol.RunNative(platform.HSWPlusKNC(0), core.ModeSim, n, 0)
			return r.GFlops, err
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var g float64
			for i := 0; i < b.N; i++ {
				gf, err := c.run()
				if err != nil {
					b.Fatal(err)
				}
				g = gf
			}
			b.ReportMetric(g, "modelGF/s")
		})
	}
}

// BenchmarkFig8Abaqus reproduces Fig. 8: per-workload solver and
// application speedups from adding 2 KNC cards.
func BenchmarkFig8Abaqus(b *testing.B) {
	for _, pc := range []struct {
		name string
		m    *platform.Machine
	}{
		{"IVB", platform.IVBPlusKNC(2)},
		{"HSW", platform.HSWPlusKNC(2)},
	} {
		for _, w := range workload.AbaqusSuite() {
			w := w
			b.Run(fmt.Sprintf("%s/%s", pc.name, w.Name), func(b *testing.B) {
				var sp solver.AppSpeedup
				for i := 0; i < b.N; i++ {
					var err error
					sp, err = solver.Fig8Speedup(pc.m, core.ModeSim, w)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(sp.Solver, "solverSpeedup")
				b.ReportMetric(sp.App, "appSpeedup")
			})
		}
	}
}

// BenchmarkFig9Supernode reproduces Fig. 9: standalone supernode
// factorization runtimes with the paper's stream layouts.
func BenchmarkFig9Supernode(b *testing.B) {
	for _, c := range solver.Fig9Cases() {
		c := c
		b.Run(c.Label, func(b *testing.B) {
			var sec float64
			for i := 0; i < b.N; i++ {
				r, err := solver.Factor(c.Mach, core.ModeSim, solver.Fig9N, solver.Fig9Tile, c.Target, false, 0)
				if err != nil {
					b.Fatal(err)
				}
				sec = r.Seconds.Seconds()
			}
			b.ReportMetric(sec, "modelSeconds")
		})
	}
}

// BenchmarkSec3TransferOverhead reproduces §III's overhead bands:
// 20–30 µs per transfer under 128 KB, <5 % at and above 1 MB.
func BenchmarkSec3TransferOverhead(b *testing.B) {
	l := platform.PCIe()
	for _, sz := range []int64{4 << 10, 128 << 10, 1 << 20, 16 << 20} {
		sz := sz
		b.Run(fmt.Sprintf("%dKB", sz>>10), func(b *testing.B) {
			var ov float64
			for i := 0; i < b.N; i++ {
				ov = l.Overhead(sz)
			}
			b.ReportMetric(100*ov, "overhead%")
			b.ReportMetric(float64(l.Setup(sz).Microseconds()), "setupUs")
		})
	}
}

// BenchmarkSec3OmpSsOverhead reproduces §III's OmpSs-over-hStreams
// overhead (15–50 % at 4800–10000, converging at large sizes).
func BenchmarkSec3OmpSsOverhead(b *testing.B) {
	for _, n := range []int{4800, 9600, 24000} {
		n := n
		tile := n / 8
		if tile > 2400 {
			tile = 2400
		}
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			var ov float64
			for i := 0; i < b.N; i++ {
				a := simApp(b, platform.HSWPlusKNC(1), 0)
				plain, err := chol.Run(a, chol.Config{N: n, Tile: tile, Panel: chol.PanelCard})
				a.Fini()
				if err != nil {
					b.Fatal(err)
				}
				om, err := chol.RunOmpSs(platform.HSWPlusKNC(1), core.ModeSim, n, tile, false, 0)
				if err != nil {
					b.Fatal(err)
				}
				ov = om.Seconds.Seconds()/plain.Seconds.Seconds() - 1
			}
			b.ReportMetric(100*ov, "overhead%")
		})
	}
}

// BenchmarkSec4OmpSsBackends reproduces §IV's backend comparison
// (paper: hStreams 1.45× faster than CUDA Streams under OmpSs).
func BenchmarkSec4OmpSsBackends(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		_, _, r, err := matmul.OmpSsBackendComparison(core.ModeSim)
		if err != nil {
			b.Fatal(err)
		}
		ratio = r
	}
	b.ReportMetric(ratio, "hStreamsAdvantage")
}

// BenchmarkSec6RTM reproduces §VI's RTM comparison: schedules and
// rank scaling against the host baseline.
func BenchmarkSec6RTM(b *testing.B) {
	cfg := stencil.Config{NX: 1024, NY: 1024, NZ: 4096, Steps: 10}
	host := cfg
	host.Schedule = stencil.HostOnly
	hostRes, err := stencil.Run(platform.HSWPlusKNC(0), core.ModeSim, host)
	if err != nil {
		b.Fatal(err)
	}
	for _, ranks := range []int{1, 4} {
		for _, sched := range []stencil.Schedule{stencil.SyncOffload, stencil.AsyncPipelined} {
			ranks, sched := ranks, sched
			b.Run(fmt.Sprintf("ranks%d/%v", ranks, sched), func(b *testing.B) {
				var sp float64
				for i := 0; i < b.N; i++ {
					c := cfg
					c.Ranks = ranks
					c.Schedule = sched
					r, err := stencil.Run(platform.HSWPlusKNC(ranks), core.ModeSim, c)
					if err != nil {
						b.Fatal(err)
					}
					sp = hostRes.Seconds.Seconds() / r.Seconds.Seconds()
				}
				b.ReportMetric(sp, "speedupVsHost")
			})
		}
	}
}

// BenchmarkRealEnqueueOverhead measures this implementation's own
// per-action enqueue cost on the host (source-side overhead).
func BenchmarkRealEnqueueOverhead(b *testing.B) {
	rt, err := core.Init(core.Config{Machine: platform.HSWPlusKNC(0), Mode: core.ModeReal})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Fini()
	rt.RegisterKernel("nop", func(*core.KernelCtx) {})
	s, err := rt.StreamCreate(rt.Host(), 0, 2)
	if err != nil {
		b.Fatal(err)
	}
	buf, err := rt.Alloc1D("b", 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%256) * 256
		if _, err := s.EnqueueCompute("nop", nil, []core.Operand{buf.Range(off, 256, core.InOut)}, platform.Cost{}); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			rt.ThreadSynchronize()
		}
	}
	rt.ThreadSynchronize()
}

// BenchmarkRealDGEMM measures the real Go DGEMM kernel this
// repository ships (the substitute for MKL).
func BenchmarkRealDGEMM(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		n := n
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			x := make([]float64, n*n)
			y := make([]float64, n*n)
			z := make([]float64, n*n)
			for i := range x {
				x[i] = float64(i % 7)
				y[i] = float64(i % 5)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blas.DgemmParallel(blas.NoTrans, blas.NoTrans, n, n, n, 1, x, n, y, n, 0, z, n, 8)
			}
			b.ReportMetric(blas.GemmFlops(n, n, n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GF/s")
		})
	}
}

// BenchmarkRealOffloadRoundTrip measures a full real-mode transfer →
// compute → transfer round trip through the hStreams→COI→fabric
// stack.
func BenchmarkRealOffloadRoundTrip(b *testing.B) {
	rt, err := core.Init(core.Config{Machine: platform.HSWPlusKNC(1), Mode: core.ModeReal})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Fini()
	kernels.Register(rt)
	s, err := rt.StreamCreate(rt.Card(0), 0, 8)
	if err != nil {
		b.Fatal(err)
	}
	buf, err := rt.Alloc1D("rt", 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(2 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.EnqueueXferAll(buf, core.ToSink); err != nil {
			b.Fatal(err)
		}
		if _, err := s.EnqueueCompute(kernels.Zero, nil, []core.Operand{buf.All(core.Out)}, platform.Cost{}); err != nil {
			b.Fatal(err)
		}
		a, err := s.EnqueueXferAll(buf, core.ToSource)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPipelining measures what the FIFO-semantic
// out-of-order pipelining is worth against bulk-synchronous passes on
// the hetero Cholesky.
func BenchmarkAblationPipelining(b *testing.B) {
	for _, bulk := range []bool{false, true} {
		name := "pipelined"
		if bulk {
			name = "bulkSync"
		}
		bulk := bulk
		b.Run(name, func(b *testing.B) {
			var g float64
			for i := 0; i < b.N; i++ {
				a := simApp(b, platform.HSWPlusKNC(2), 4)
				r, err := chol.Run(a, chol.Config{N: 24000, Tile: 2400, UseHost: true, Panel: chol.PanelHost, BulkSync: bulk})
				a.Fini()
				if err != nil {
					b.Fatal(err)
				}
				g = r.GFlops
			}
			b.ReportMetric(g, "modelGF/s")
		})
	}
}

// BenchmarkAblationAsyncAlloc measures §VII's forthcoming feature,
// implemented here: asynchronous sink-side buffer allocation against
// the paper's synchronous state.
func BenchmarkAblationAsyncAlloc(b *testing.B) {
	for _, async := range []bool{false, true} {
		name := "sync"
		if async {
			name = "async"
		}
		async := async
		b.Run(name, func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				rt, err := core.Init(core.Config{Machine: platform.HSWPlusKNC(2), Mode: core.ModeSim, AsyncAlloc: async})
				if err != nil {
					b.Fatal(err)
				}
				s, err := rt.StreamCreate(rt.Card(0), 0, 61)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < 64; j++ {
					buf, err := rt.Alloc1D("b", 1<<20)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := s.EnqueueXferAll(buf, core.ToSink); err != nil {
						b.Fatal(err)
					}
				}
				rt.ThreadSynchronize()
				spans, err := rt.Spans()
				if err != nil {
					b.Fatal(err)
				}
				makespan = trace.Makespan(spans).Seconds() * 1000
				rt.Fini()
			}
			b.ReportMetric(makespan, "makespanMs")
		})
	}
}

// BenchmarkAblationStreamsPerCard sweeps the §VI stream-count tuning
// axis on the offload matmul.
func BenchmarkAblationStreamsPerCard(b *testing.B) {
	for _, streams := range []int{1, 2, 4, 8} {
		streams := streams
		b.Run(fmt.Sprintf("streams%d", streams), func(b *testing.B) {
			var g float64
			for i := 0; i < b.N; i++ {
				a, err := app.Init(app.Options{Machine: platform.HSWPlusKNC(1), Mode: core.ModeSim, StreamsPerCard: streams})
				if err != nil {
					b.Fatal(err)
				}
				r, err := matmul.Run(a, matmul.Config{N: 19200, Tile: 2400})
				a.Fini()
				if err != nil {
					b.Fatal(err)
				}
				g = r.GFlops
			}
			b.ReportMetric(g, "modelGF/s")
		})
	}
}

// BenchmarkAblationTileSize sweeps the §VI tile-size tuning axis on
// the offload Cholesky.
func BenchmarkAblationTileSize(b *testing.B) {
	for _, tile := range []int{600, 1200, 2400, 4800} {
		tile := tile
		b.Run(fmt.Sprintf("tile%d", tile), func(b *testing.B) {
			var g float64
			for i := 0; i < b.N; i++ {
				a := simApp(b, platform.HSWPlusKNC(1), 0)
				r, err := chol.Run(a, chol.Config{N: 24000, Tile: tile, Panel: chol.PanelCard})
				a.Fini()
				if err != nil {
					b.Fatal(err)
				}
				g = r.GFlops
			}
			b.ReportMetric(g, "modelGF/s")
		})
	}
}

// BenchmarkRealBufferPool measures COI's 2 MB sink-buffer pool (§III):
// repeated create/destroy cycles with and without pooling.
func BenchmarkRealBufferPool(b *testing.B) {
	for _, pooled := range []bool{true, false} {
		name := "pooled"
		if !pooled {
			name = "unpooled"
		}
		pooled := pooled
		b.Run(name, func(b *testing.B) {
			rt, err := core.Init(core.Config{Machine: platform.HSWPlusKNC(1), Mode: core.ModeReal, DisableBufferPool: !pooled})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Fini()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rt.Alloc1D("b", 2<<20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
