// Command hsserve is the multi-tenant serving front end: it brings up
// one Real-mode hStreams runtime, mounts the internal/serve HTTP/JSON
// API on -addr, and multiplexes tenants onto the runtime with
// weighted fair-share admission, bounded admission queues, and
// per-tenant quotas (SERVING.md is the operator guide).
//
// Built-in kernels:
//
//	spin   args[0] = busy time in nanoseconds — a calibrated,
//	       buffer-free service-time kernel for load tests.
//	fill   args[0] = byte value written over operand 0.
//	sum    sums operand 0's bytes into the first 8 bytes of
//	       operand 1 (little-endian uint64).
//
// Shutdown on SIGINT/SIGTERM is graceful: admission stops, tenants
// drain, every tenant buffer is freed, the runtime finalizes, and the
// process prints the end-of-run leaked-buffer count (the
// hstreams_buffers_live gauge, which must be zero — TestServeSmoke
// asserts it).
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hstreams/internal/core"
	"hstreams/internal/debugserver"
	"hstreams/internal/health"
	"hstreams/internal/metrics"
	"hstreams/internal/platform"
	"hstreams/internal/serve"
	"hstreams/internal/telemetry"
	"hstreams/internal/trace"
)

// tenantSpec is one -tenant NAME:WEIGHT pre-registration.
type tenantSpec struct {
	name   string
	weight int
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "serve the tenant API (/v1/..., /metrics, /healthz) on this address (port 0 picks a free port)")
	debugAddr := flag.String("debug-addr", "", "serve live debug endpoints (/metrics, /debug/pprof, /debug/tenants, /debug/timeline, /debug/health, ...) on this address")
	maxInflight := flag.Int("max-inflight", 8, "server-wide bound on actions in service across all tenants")
	streamsPerTenant := flag.Int("streams-per-tenant", 2, "default stream-group size per tenant")
	streamWidth := flag.Int("stream-width", 1, "cores granted to each tenant stream (groups overlap)")
	maxPending := flag.Int("max-pending", 64, "default bound on each tenant's admitted-but-undispatched queue")
	shadow := flag.Bool("shadow", false, "shadow mode: run the full admission/quota/accounting path without executing anything (no runtime)")
	var tenants []tenantSpec
	flag.Func("tenant", "pre-register a tenant as NAME:WEIGHT (repeatable), e.g. -tenant gold:2 -tenant bronze:1", func(v string) error {
		name, weightStr, ok := strings.Cut(v, ":")
		weight := 1
		if ok {
			n, err := strconv.Atoi(weightStr)
			if err != nil || n < 1 {
				return fmt.Errorf("bad weight in %q", v)
			}
			weight = n
		}
		if name == "" {
			return fmt.Errorf("empty tenant name in %q", v)
		}
		tenants = append(tenants, tenantSpec{name: name, weight: weight})
		return nil
	})
	flag.Parse()

	// One runtime (none in -shadow mode), so one registry and one
	// recorder: the runtime, the serving layer, the health engine, the
	// sampler and the debug server all share them, and the leak check
	// reads the gauge the runtime wrote.
	reg := metrics.New()
	flight := trace.NewFlight(0)
	var rt *core.Runtime
	var runtimes []*core.Runtime
	if !*shadow {
		var err error
		rt, err = core.Init(core.Config{
			Machine: platform.HSWPlusKNC(0),
			Mode:    core.ModeReal,
			Metrics: reg,
			Flight:  flight,
		})
		check(err)
		registerKernels(rt)
		runtimes = []*core.Runtime{rt}
	}

	// Health engine + sampler, so /debug/health and /debug/timeline
	// work out of the box and the tenant SLO rules (tenant-shed,
	// admission-wait) evaluate live.
	engine := health.New(health.Options{
		Registry: reg,
		Runtimes: func() []*core.Runtime { return runtimes },
	})
	sampler := telemetry.NewSampler(telemetry.SamplerOptions{
		Registry: reg,
		Store:    engine.Store(),
		Interval: 100 * time.Millisecond,
		OnSample: engine.Tick,
	})
	sampler.Start()
	defer sampler.Stop()

	l, err := serve.Start(*addr, serve.Options{
		Runtime:           rt,
		Registry:          reg,
		MaxInflight:       *maxInflight,
		StreamsPerTenant:  *streamsPerTenant,
		StreamWidth:       *streamWidth,
		DefaultMaxPending: *maxPending,
		Shadow:            *shadow,
	})
	check(err)
	srv := l.Server()
	for _, t := range tenants {
		_, err := srv.Register(t.name, serve.Quotas{Weight: t.weight})
		check(err)
	}
	fmt.Printf("hsserve listening on http://%s (%s)\n", l.Addr(), srv)

	if *debugAddr != "" {
		dbg, err := debugserver.Start(*debugAddr, debugserver.Options{
			Health:  engine,
			Flight:  flight,
			Tenants: srv.Tenants,
		})
		check(err)
		defer dbg.Close()
		fmt.Printf("debug server listening on http://%s\n", dbg.Addr())
	}

	// Graceful shutdown: drain tenants, free buffers, finalize the
	// runtime, report the leak check.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("hsserve: draining")
	check(l.Close())
	if rt != nil {
		rt.Fini()
	}
	leaked := int64(reg.Total("hstreams_buffers_live"))
	fmt.Printf("hsserve: shutdown clean; leaked buffers: %d\n", leaked)
	if leaked != 0 {
		os.Exit(1)
	}
}

// registerKernels installs the built-in serving kernels.
func registerKernels(rt *core.Runtime) {
	rt.RegisterKernel("spin", func(ctx *core.KernelCtx) {
		d := time.Duration(0)
		if len(ctx.Args) > 0 {
			d = time.Duration(ctx.Args[0])
		}
		// Sleep, not busy-wait: service time must be independent of
		// how many goroutines contend for CPU, or fairness ratios
		// would wobble with host load.
		time.Sleep(d)
	})
	rt.RegisterKernel("fill", func(ctx *core.KernelCtx) {
		v := byte(0)
		if len(ctx.Args) > 0 {
			v = byte(ctx.Args[0])
		}
		if len(ctx.Ops) > 0 {
			buf := ctx.Ops[0]
			for i := range buf {
				buf[i] = v
			}
		}
	})
	rt.RegisterKernel("sum", func(ctx *core.KernelCtx) {
		if len(ctx.Ops) < 2 || len(ctx.Ops[1]) < 8 {
			return
		}
		var total uint64
		for _, b := range ctx.Ops[0] {
			total += uint64(b)
		}
		binary.LittleEndian.PutUint64(ctx.Ops[1], total)
	})
}

// check exits on a fatal setup error.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hsserve:", err)
		os.Exit(1)
	}
}
