package core_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"hstreams/internal/core"
	"hstreams/internal/metrics"
	"hstreams/internal/platform"
	"hstreams/internal/serve"
	"hstreams/internal/trace"
)

// census is what an owner must get back once churn is over: the
// goroutines (a card stream's COI pipeline is one), the registry's
// series, the live-buffer gauge, and the high-water mark of the
// runtime's proxy address space.
type census struct {
	goroutines int
	series     int
	buffers    float64
	highWater  uint64
}

func takeCensus(rt *core.Runtime) census {
	reg := rt.Metrics()
	return census{
		goroutines: runtime.NumGoroutine(),
		series:     len(reg.Snapshot()),
		buffers:    reg.Total("hstreams_buffers_live"),
		highWater:  core.ProxyHighWater(rt),
	}
}

// settled takes the census once the goroutine count has stopped
// falling: goroutines of torn-down streams and runtimes exit
// asynchronously, shortly after the call that ended them returns.
func settled(rt *core.Runtime) census {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			break
		}
		n = m
	}
	return takeCensus(rt)
}

// TestTeardownCensus churns everything an owner can create and give
// back on a one-card machine — streams with work on them, buffers,
// serve tenants (Real only: serve needs a Real runtime) and whole
// runtimes — and checks after each phase that the census is back at
// its baseline. Each phase runs once before its baseline, so lazily
// created series (a first transfer's link series) count as baseline,
// and then churnRounds times more.
func TestTeardownCensus(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeReal, core.ModeSim} {
		t.Run(mode.String(), func(t *testing.T) { runCensus(t, mode) })
	}
}

const churnRounds = 20

func runCensus(t *testing.T, mode core.Mode) {
	reg := metrics.New()
	flight := trace.NewFlight(1 << 10)
	initRT := func() *core.Runtime {
		rt, err := core.Init(core.Config{
			Machine: platform.HSWPlusKNC(1),
			Mode:    mode,
			Metrics: reg,
			Flight:  flight,
		})
		if err != nil {
			t.Fatal(err)
		}
		rt.RegisterKernel("k", func(*core.KernelCtx) {})
		return rt
	}
	cost := platform.Cost{Kernel: platform.KDGEMM, N: 64}
	// work runs a transfer there, a compute and a transfer back on s.
	work := func(s *core.Stream, b *core.Buf) {
		if _, err := s.EnqueueXferAll(b, core.ToSink); err != nil {
			t.Fatal(err)
		}
		if _, err := s.EnqueueCompute("k", nil, []core.Operand{b.All(core.InOut)}, cost); err != nil {
			t.Fatal(err)
		}
		if _, err := s.EnqueueXferAll(b, core.ToSource); err != nil {
			t.Fatal(err)
		}
		if err := s.Synchronize(); err != nil {
			t.Fatal(err)
		}
	}

	rt := initRT()
	defer rt.Fini()
	standing, err := rt.StreamCreate(rt.Card(0), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	held, err := rt.Alloc1D("held", 4096)
	if err != nil {
		t.Fatal(err)
	}
	var srv *serve.Server
	if mode == core.ModeReal {
		if srv, err = serve.New(serve.Options{Runtime: rt, Registry: reg}); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
	}

	phases := []struct {
		name string
		real bool // needs a Real runtime
		once func(i int)
	}{
		{name: "streams", once: func(int) {
			s, err := rt.StreamCreate(rt.Card(0), 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			work(s, held)
			if err := s.Destroy(); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "buffers", once: func(i int) {
			b, err := rt.Alloc1D("churn", int64(4096*(1+i%3)))
			if err != nil {
				t.Fatal(err)
			}
			work(standing, b)
			if err := b.Free(); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "tenants", real: true, once: func(i int) {
			name := fmt.Sprintf("t%d", i)
			if _, err := srv.Register(name, serve.Quotas{}); err != nil {
				t.Fatal(err)
			}
			b, err := srv.AllocBuffer(name, "b", 4096)
			if err != nil {
				t.Fatal(err)
			}
			a, err := srv.Submit(context.Background(), name, serve.SubmitRequest{
				Kernel: "k", Ops: []core.Operand{b.All(core.InOut)},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Wait(); err != nil {
				t.Fatal(err)
			}
			// The tenant's buffer is left for Unregister to free.
			if err := srv.Unregister(name); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "runtimes", once: func(int) {
			other := initRT()
			s, err := other.StreamCreate(other.Card(0), 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := other.Alloc1D("left", 4096)
			if err != nil {
				t.Fatal(err)
			}
			work(s, b)
			// The stream and the buffer are left for Fini.
			other.Fini()
		}},
	}
	for _, ph := range phases {
		if ph.real && mode != core.ModeReal {
			continue
		}
		ph.once(0)
		base := settled(rt)
		for i := 1; i <= churnRounds; i++ {
			ph.once(i)
		}
		got := settled(rt)
		if got.goroutines < base.goroutines {
			// Other tests' goroutines finishing late do not count.
			got.goroutines = base.goroutines
		}
		if got != base {
			t.Errorf("%s: after %d rounds the census is %+v, want the baseline %+v", ph.name, churnRounds, got, base)
		}
	}
}
