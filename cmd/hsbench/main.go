// Command hsbench regenerates every table and figure of the paper's
// evaluation on the simulated platform. Each figure is a subcommand
// of the -fig flag:
//
//	hsbench -fig 3         Fig. 3 pointer (see cmd/codingtable)
//	hsbench -fig 6         matmul GFlop/s vs size, 8 configurations
//	hsbench -fig 7         Cholesky GFlop/s vs size, 9 implementations
//	hsbench -fig 8         Abaqus speedups, 8 workloads × {IVB, HSW}
//	hsbench -fig 9         standalone supernode runtimes
//	hsbench -fig overhead  §III transfer-overhead bands
//	hsbench -fig ompss     OmpSs backend comparison (hStreams vs CUDA)
//	hsbench -fig rtm       §VI RTM schedules and rank scaling
//	hsbench -fig tuning    §VI tiling/stream sweeps + design ablations
//	hsbench -fig lu        §VI LU (DGETRF) claims + Simulia streaming comparison
//	hsbench -fig all       everything
//
// The extra "chaos" figure (not part of -fig all) runs the Real-mode
// hetero matmul under the deterministic fault injector and verifies
// the result bit-for-bit against the reference product — the
// resilience layer's end-to-end gate (see OPERATIONS.md and
// TestChaosGate). Tune it with -faults, -fault-seed, -retry,
// -retry-backoff, -deadline and -breaker.
//
// -debug-addr serves the live debug endpoints while the figures run;
// TestDebugGate checks them. A batch run's end-of-run views come from
// -metrics, -trace, -critpath, -timeline and -health.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"hstreams/internal/app"
	"hstreams/internal/chol"
	"hstreams/internal/core"
	"hstreams/internal/debugserver"
	"hstreams/internal/fault"
	"hstreams/internal/health"
	"hstreams/internal/lu"
	"hstreams/internal/magma"
	"hstreams/internal/matmul"
	"hstreams/internal/metrics"
	"hstreams/internal/mklao"
	"hstreams/internal/platform"
	"hstreams/internal/solver"
	"hstreams/internal/stencil"
	"hstreams/internal/telemetry"
	"hstreams/internal/trace"
	"hstreams/internal/workload"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 3, 6, 7, 8, 9, overhead, ompss, rtm, tuning, lu, all, chaos")
	metricsFile := flag.String("metrics", "", "write accumulated runtime telemetry to this file in Prometheus text format ('-' for stdout)")
	debugAddr := flag.String("debug-addr", "", "serve live debug endpoints (/metrics, /debug/pprof, /debug/trace, /debug/streams, /debug/critpath, /debug/timeline, /debug/health, /debug/events) on this address, e.g. 127.0.0.1:6060 (port 0 picks a free port)")
	critpath := flag.Bool("critpath", false, "print the critical-path report of the last schedule after the figures finish")
	traceFile := flag.String("trace", "", "write the flight recorder's retained spans as Chrome trace JSON to this file (load in Perfetto for dependency arrows)")
	timeline := flag.Bool("timeline", false, "sample the registry continuously and print the rolling-window telemetry views (rates, quantiles, utilization, queues, links) after the figures finish")
	healthFlag := flag.Bool("health", false, "run the health engine (stall watchdog, SLO rule pack, event journal) on the sampler cadence and print its report after the figures finish")
	checkpointFile := flag.String("checkpoint", "", "serialize the last schedule's DAG (spans, dep edges, costs, config) to this versioned file for later -replay")
	replayFile := flag.String("replay", "", "re-execute a checkpointed DAG in Sim mode, assert it is edge-for-edge identical and deterministic, print its critical path, and exit")
	flag.Float64Var(&chaosOpts.prob, "faults", 0, "fault-injection probability for transfer and kernel faults in the chaos figure (0 uses its default)")
	flag.Uint64Var(&chaosOpts.seed, "fault-seed", 1, "seed for the deterministic fault injector (chaos figure)")
	flag.IntVar(&chaosOpts.retry, "retry", 0, "max re-attempts per transiently failing action in the chaos figure (0 uses its default)")
	flag.DurationVar(&chaosOpts.backoff, "retry-backoff", chaosBackoff, "base exponential backoff between re-attempts (chaos figure)")
	flag.DurationVar(&chaosOpts.deadline, "deadline", 0, "per-action deadline across attempts in the chaos figure (0 disables)")
	flag.IntVar(&chaosOpts.breaker, "breaker", 0, "consecutive transient failures that quarantine a domain in the chaos figure (0 disables the breaker)")
	flag.Parse()

	if *replayFile != "" {
		runReplay(*replayFile)
		return
	}

	obs, err := observe(*healthFlag, *timeline, *debugAddr)
	check(err)
	if obs.debug != nil {
		defer obs.debug.Close()
		fmt.Printf("debug server listening on http://%s\n", obs.debug.Addr())
	}
	var onEvent func(core.RuntimeEvent) // the chaos run's lifecycle events
	if obs.engine != nil {
		onEvent = obs.engine.Journal().CoreEvent
	}

	runs := map[string]func(){
		"3":        fig3,
		"6":        fig6,
		"7":        fig7,
		"8":        fig8,
		"9":        fig9,
		"overhead": overhead,
		"ompss":    ompssCompare,
		"rtm":      rtm,
		"tuning":   tuning,
		"lu":       luClaims,
		"chaos":    func() { chaos(onEvent) },
	}
	if *fig == "all" {
		for _, k := range []string{"3", "6", "7", "8", "9", "overhead", "ompss", "rtm", "tuning", "lu"} {
			runs[k]()
			fmt.Println()
		}
	} else {
		f, ok := runs[*fig]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
			os.Exit(1)
		}
		f()
	}
	telemetrySummary()
	if obs.sampler != nil {
		obs.sampler.Stop() // takes the final end-of-run sample
	}
	if *timeline {
		fmt.Print(telemetry.Build(obs.sampler.Store(), metrics.Default(), 0).Format())
	}
	if *healthFlag {
		obs.engine.Tick(time.Now()) // final verdict over the end-of-run window
		fmt.Print(obs.engine.Report().Format())
	}
	if *checkpointFile != "" {
		check(writeCheckpoint(*checkpointFile))
	}
	if *metricsFile != "" {
		check(writeMetrics(*metricsFile))
	}
	if *critpath {
		rep := trace.Analyze(trace.LatestRun(trace.DefaultFlight().Snapshot()))
		fmt.Print(rep.Format())
	}
	if *traceFile != "" {
		check(writeChromeTrace(*traceFile))
	}
}

// observers is hsbench's observation wiring: the health engine over
// the process-wide registry and live runtimes (only the chaos figure
// feeds its journal, through Config.OnEvent); the sampler, which
// writes the engine's store and ticks the engine on its cadence; and
// the live debug server over both. Each is nil unless something will
// read it.
type observers struct {
	engine  *health.Engine
	sampler *telemetry.Sampler
	debug   *debugserver.Server
}

// observe starts the observers the -health, -timeline and -debug-addr
// flags ask for. The engine runs for -health or the debug server's
// /debug/health; the sampler for any of the three. The caller stops
// the sampler (its final end-of-run sample) and closes the server.
func observe(healthOn, timeline bool, debugAddr string) (*observers, error) {
	var o observers
	opts := telemetry.SamplerOptions{Interval: 100 * time.Millisecond}
	if healthOn || debugAddr != "" {
		o.engine = health.New(health.Options{})
		opts.Store, opts.OnSample = o.engine.Store(), o.engine.Tick
	}
	if debugAddr != "" {
		srv, err := debugserver.Start(debugAddr, debugserver.Options{Health: o.engine, Flight: trace.DefaultFlight()})
		if err != nil {
			return nil, err
		}
		o.debug = srv
	}
	if timeline || o.engine != nil {
		o.sampler = telemetry.NewSampler(opts)
		o.sampler.Start()
	}
	return &o, nil
}

// telemetrySummary prints a one-line digest of the process-wide
// registry every runtime reported into, so bench trajectory files
// capture the telemetry alongside the figures.
func telemetrySummary() {
	reg := metrics.Default()
	actions := reg.Total("hstreams_actions_total")
	stall := reg.Total("hstreams_dep_stall_seconds_sum")
	bytes := reg.Total("hstreams_link_bytes_total")
	hits := reg.Total("hstreams_coi_pool_hits_total")
	misses := reg.Total("hstreams_coi_pool_misses_total")
	poolRate := "n/a"
	if hits+misses > 0 {
		poolRate = fmt.Sprintf("%.1f%%", 100*hits/(hits+misses))
	}
	fmt.Printf("telemetry: actions=%.0f dep-stall=%.3fs link-bytes=%.0f pool-hit=%s errors=%.0f\n",
		actions, stall, bytes, poolRate, reg.Total("hstreams_action_errors_total"))
}

// writeMetrics dumps the process-wide registry in Prometheus text
// format.
func writeMetrics(path string) error {
	if path == "-" {
		return metrics.Default().WriteProm(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := metrics.Default().WriteProm(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeChromeTrace dumps the process-wide flight recorder as Chrome
// trace JSON with flow (dependency) arrows.
func writeChromeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeSpans(f, trace.DefaultFlight().Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCheckpoint serializes the latest run's DAG from the
// process-wide flight recorder to a versioned checkpoint file.
func writeCheckpoint(path string) error {
	latest := trace.LatestRun(trace.DefaultFlight().Snapshot())
	if len(latest) == 0 {
		return fmt.Errorf("checkpoint: flight recorder holds no spans")
	}
	c, err := core.CheckpointRun(trace.DefaultFlight(), latest[0].Run)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.Encode(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("checkpoint: run %d, %d streams, %d actions → %s\n",
		c.Run, len(c.Streams), len(c.Actions), path)
	return nil
}

// runReplay loads a checkpoint, replays it twice in Sim mode, asserts
// the replays are deterministic (identical makespan and critical-path
// category sums), and prints the first replay's critical-path report.
// The per-replay edge-for-edge DAG identity check lives inside
// Checkpoint.Replay. Exits nonzero on any mismatch.
func runReplay(path string) {
	f, err := os.Open(path)
	check(err)
	c, err := core.DecodeCheckpoint(f)
	f.Close()
	check(err)
	r1, err := c.Replay()
	check(err)
	r2, err := c.Replay()
	check(err)
	if r1.Makespan != r2.Makespan || r1.Report.CategorySum() != r2.Report.CategorySum() {
		log.Fatalf("replay nondeterministic: makespan %v vs %v, category sum %v vs %v",
			r1.Makespan, r2.Makespan, r1.Report.CategorySum(), r2.Report.CategorySum())
	}
	fmt.Printf("replay: %s run %d (%s mode originally), %d actions, makespan %v — DAG edge-for-edge identical, deterministic across 2 replays\n",
		path, c.Run, c.Mode, r1.Actions, r1.Makespan)
	fmt.Print(r1.Report.Format())
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func fig3() {
	fmt.Println("== Fig. 3: coding comparison — run `go run ./cmd/codingtable` for the full table ==")
	hs, err := matmul.HStreamsVariant(core.ModeSim, 10000, 2000, 4, false)
	check(err)
	om, err := matmul.OmpSsVariant(core.ModeSim, 10000, 2000, false)
	check(err)
	u40, err := matmul.OMP40UntiledVariant(core.ModeSim, 10000, false)
	check(err)
	t40, err := matmul.OMP40TiledVariant(core.ModeSim, 10000, 2000, false)
	check(err)
	cl, err := matmul.OpenCLVariant(core.ModeSim, 10000, 2000, 4, false)
	check(err)
	fmt.Printf("GFl/s (10K)²: hStreams %.0f (paper 916), OmpSs %.0f (762), OMP4.0 %.0f/%.0f (460/180), OpenCL %.0f (35)\n",
		hs.GFlops, om.GFlops, u40.GFlops, t40.GFlops, cl.GFlops)
}

func newSimApp(m *platform.Machine, hostStreams int) *app.App {
	a, err := app.Init(app.Options{
		Machine:        m,
		Mode:           core.ModeSim,
		StreamsPerCard: 4,
		HostStreams:    hostStreams,
	})
	check(err)
	return a
}

// matmulTile picks the sweep tile for a size.
func matmulTile(n int) int {
	for _, t := range []int{2400, 2000, 1600, 1200, 800} {
		if n%t == 0 && n/t >= 4 {
			return t
		}
	}
	return n / 4
}

func fig6() {
	fmt.Println("== Fig. 6: hetero matmul GFlop/s vs matrix size ==")
	sizes := []int{4800, 9600, 14400, 19200, 24000, 28800}
	type cfg struct {
		label   string
		machine func() *platform.Machine
		host    bool
		balance bool
	}
	cases := []cfg{
		{"HSW+2KNC", func() *platform.Machine { return platform.HSWPlusKNC(2) }, true, true},
		{"HSW+1KNC", func() *platform.Machine { return platform.HSWPlusKNC(1) }, true, true},
		{"1KNC(offl)", func() *platform.Machine { return platform.HSWPlusKNC(1) }, false, false},
		{"HSWnative", func() *platform.Machine { return platform.HSWPlusKNC(0) }, true, true},
		{"IVB+2KNC bal", func() *platform.Machine { return platform.IVBPlusKNC(2) }, true, true},
		{"IVB+2KNC nobal", func() *platform.Machine { return platform.IVBPlusKNC(2) }, true, false},
		{"IVB+1KNC bal", func() *platform.Machine { return platform.IVBPlusKNC(1) }, true, true},
		{"IVBnative", func() *platform.Machine { return platform.IVBPlusKNC(0) }, true, true},
	}
	fmt.Printf("%-16s", "config")
	for _, n := range sizes {
		fmt.Printf("%9d", n)
	}
	fmt.Println()
	for _, c := range cases {
		fmt.Printf("%-16s", c.label)
		for _, n := range sizes {
			hostStreams := 0
			if c.host {
				hostStreams = 3
			}
			a := newSimApp(c.machine(), hostStreams)
			res, err := matmul.Run(a, matmul.Config{
				N: n, Tile: matmulTile(n), UseHost: c.host, LoadBalance: c.balance,
			})
			a.Fini()
			check(err)
			fmt.Printf("%9.0f", res.GFlops)
		}
		fmt.Println()
	}
	fmt.Println("paper endpoints (28800): 2599, 1622, 982, 902, 1878, 1192, 1165, 475")
}

func cholTile(n int) int {
	for _, t := range []int{2400, 2000, 1600, 1200, 800, 600} {
		if n%t == 0 && n/t >= 5 {
			return t
		}
	}
	return n / 5
}

func fig7() {
	fmt.Println("== Fig. 7: Cholesky GFlop/s vs matrix size ==")
	sizes := []int{4800, 9600, 14400, 19200, 24000, 28800}
	rows := []struct {
		label string
		run   func(n int) float64
	}{
		{"hStr HSW+2KNC", func(n int) float64 {
			r, err := chol.RunBestHetero(func() *platform.Machine { return platform.HSWPlusKNC(2) }, core.ModeSim, n, cholTile(n), 4)
			check(err)
			return r.GFlops
		}},
		{"MKLAO HSW+2KNC", func(n int) float64 {
			r, err := mklao.Dpotrf(platform.HSWPlusKNC(2), core.ModeSim, n, false, 0)
			check(err)
			return r.GFlops
		}},
		{"Magma HSW+2KNC", func(n int) float64 {
			r, err := magma.Dpotrf(platform.HSWPlusKNC(2), core.ModeSim, n, false, 0)
			check(err)
			return r.GFlops
		}},
		{"hStr HSW+1KNC", func(n int) float64 {
			r, err := chol.RunBestHetero(func() *platform.Machine { return platform.HSWPlusKNC(1) }, core.ModeSim, n, cholTile(n), 4)
			check(err)
			return r.GFlops
		}},
		{"MKLAO HSW+1KNC", func(n int) float64 {
			r, err := mklao.Dpotrf(platform.HSWPlusKNC(1), core.ModeSim, n, false, 0)
			check(err)
			return r.GFlops
		}},
		{"Magma HSW+1KNC", func(n int) float64 {
			r, err := magma.Dpotrf(platform.HSWPlusKNC(1), core.ModeSim, n, false, 0)
			check(err)
			return r.GFlops
		}},
		{"OmpSs HSW+1KNC", func(n int) float64 {
			r, err := chol.RunOmpSs(platform.HSWPlusKNC(1), core.ModeSim, n, cholTile(n), false, 0)
			check(err)
			return r.GFlops
		}},
		{"hStr 1KNC offl", func(n int) float64 {
			a := newSimApp(platform.HSWPlusKNC(1), 0)
			defer a.Fini()
			r, err := chol.Run(a, chol.Config{N: n, Tile: cholTile(n), Panel: chol.PanelCard})
			check(err)
			return r.GFlops
		}},
		{"HSW native", func(n int) float64 {
			r, err := chol.RunNative(platform.HSWPlusKNC(0), core.ModeSim, n, 0)
			check(err)
			return r.GFlops
		}},
	}
	fmt.Printf("%-16s", "impl")
	for _, n := range sizes {
		fmt.Printf("%9d", n)
	}
	fmt.Println()
	for _, row := range rows {
		fmt.Printf("%-16s", row.label)
		for _, n := range sizes {
			fmt.Printf("%9.0f", row.run(n))
		}
		fmt.Println()
	}
	fmt.Println("paper endpoints (~32000): 1971, 1743, 1637, 1373, 1356, 1015, 949, 774, 733")
}

func fig8() {
	fmt.Println("== Fig. 8: Abaqus speedups from adding 2 KNC cards ==")
	for _, pc := range []struct {
		name string
		m    *platform.Machine
	}{
		{"IVB", platform.IVBPlusKNC(2)},
		{"HSW", platform.HSWPlusKNC(2)},
	} {
		fmt.Printf("%s host:\n", pc.name)
		for _, w := range workload.AbaqusSuite() {
			sp, err := solver.Fig8Speedup(pc.m, core.ModeSim, w)
			check(err)
			tag := "sym  "
			if w.Unsymmetric {
				tag = "unsym"
			}
			fmt.Printf("  %-4s %s  solver %.2fx  app %.2fx\n", w.Name, tag, sp.Solver, sp.App)
		}
	}
	fmt.Println("paper maxima: IVB 2.61x solver / 1.99x app; HSW 1.45x / 1.22x")
}

func fig9() {
	fmt.Println("== Fig. 9: standalone supernode factorization runtimes ==")
	for _, c := range solver.Fig9Cases() {
		r, err := solver.Factor(c.Mach, core.ModeSim, solver.Fig9N, solver.Fig9Tile, c.Target, false, 0)
		check(err)
		fmt.Printf("  %-22s %6.2f s\n", c.Label, r.Seconds.Seconds())
	}
	fmt.Println("paper: KNC offload 2.35 s, HSW host-as-target 2.24 s, IVB host-as-target 4.27 s")
}

func overhead() {
	fmt.Println("== §III overheads ==")
	l := platform.PCIe()
	fmt.Println("transfer setup overhead vs size (paper: 20-30us under 128KB, <5% at 1MB and up):")
	for _, sz := range []int64{4 << 10, 32 << 10, 128 << 10, 512 << 10, 1 << 20, 8 << 20, 64 << 20} {
		fmt.Printf("  %8d KB: setup %8v, total %10v, overhead %5.1f%%\n",
			sz>>10, l.Setup(sz), l.TransferTime(sz), 100*l.Overhead(sz))
	}
	fmt.Println("OmpSs-over-hStreams overhead (paper: 15-50% at n=4800-10000, converging):")
	for _, n := range []int{4800, 7200, 9600, 14400, 24000} {
		// Small problems run with small tiles (the regime where
		// fully dynamic task handling hurts).
		tile := n / 8
		if tile > 2400 {
			tile = 2400
		}
		a := newSimApp(platform.HSWPlusKNC(1), 0)
		plain, err := chol.Run(a, chol.Config{N: n, Tile: tile, Panel: chol.PanelCard})
		a.Fini()
		check(err)
		om, err := chol.RunOmpSs(platform.HSWPlusKNC(1), core.ModeSim, n, tile, false, 0)
		check(err)
		fmt.Printf("  n=%6d: hStreams %8v, OmpSs %8v, overhead %5.1f%%\n",
			n, plain.Seconds, om.Seconds, 100*(om.Seconds.Seconds()/plain.Seconds.Seconds()-1))
	}
}

func ompssCompare() {
	fmt.Println("== §IV: OmpSs over hStreams vs over CUDA Streams (4Kx4K, 2x2 tiles) ==")
	hs, cu, ratio, err := matmul.OmpSsBackendComparison(core.ModeSim)
	check(err)
	fmt.Printf("  hStreams backend: %v\n  CUDA backend:     %v\n  hStreams is %.2fx faster (paper: 1.45x)\n", hs, cu, ratio)
}

func rtm() {
	fmt.Println("== §VI: Petrobras RTM ==")
	cfg := stencil.Config{NX: 1024, NY: 1024, NZ: 4096, Steps: 10}
	host := cfg
	host.Schedule = stencil.HostOnly
	hostRes, err := stencil.Run(platform.HSWPlusKNC(0), core.ModeSim, host)
	check(err)
	fmt.Printf("  %-30s %8.0f Mpt/s\n", "HSW host baseline", hostRes.MPointsPerSec)
	for _, ranks := range []int{1, 2, 4} {
		for _, sched := range []stencil.Schedule{stencil.SyncOffload, stencil.AsyncPipelined} {
			c := cfg
			c.Ranks = ranks
			c.Schedule = sched
			r, err := stencil.Run(platform.HSWPlusKNC(ranks), core.ModeSim, c)
			check(err)
			fmt.Printf("  %d rank(s) %-20v %8.0f Mpt/s  (%.2fx host)\n",
				ranks, sched, r.MPointsPerSec, hostRes.Seconds.Seconds()/r.Seconds.Seconds())
		}
	}
	fmt.Println("paper: 1.52x for 1 card, 6.02x for 4 ranks; async pipelining buys 3-10%")
}

// tuning regenerates the §VI "Within a Node: Tiling, Concurrency,
// Balancing" exploration: tile-size and stream-count sweeps for the
// offload Cholesky and matmul, plus the ablations this design's
// choices rest on (FIFO-semantic pipelining, async allocation).
func tuning() {
	fmt.Println("== §VI: tiling / streams tuning and design ablations ==")
	fmt.Println("Cholesky (1 KNC offload), GFlop/s by tile size:")
	for _, n := range []int{4800, 24000} {
		fmt.Printf("  n=%d:", n)
		for _, tile := range []int{300, 600, 1200, 2400} {
			if n%tile != 0 || n/tile < 4 {
				continue
			}
			a := newSimApp(platform.HSWPlusKNC(1), 0)
			r, err := chol.Run(a, chol.Config{N: n, Tile: tile, Panel: chol.PanelCard})
			a.Fini()
			check(err)
			fmt.Printf("  tile %4d → %4.0f", tile, r.GFlops)
		}
		fmt.Println()
	}
	fmt.Println("matmul (1 KNC offload, n=19200), GFlop/s by stream count:")
	for _, streams := range []int{1, 2, 4, 8} {
		a, err := app.Init(app.Options{Machine: platform.HSWPlusKNC(1), Mode: core.ModeSim, StreamsPerCard: streams})
		check(err)
		r, err := matmul.Run(a, matmul.Config{N: 19200, Tile: 2400})
		a.Fini()
		check(err)
		fmt.Printf("  %d stream(s) → %4.0f\n", streams, r.GFlops)
	}
	fmt.Println("ablation: FIFO-semantic pipelining (hetero Cholesky, n=24000, HSW+2KNC):")
	for _, bulk := range []bool{false, true} {
		a := newSimApp(platform.HSWPlusKNC(2), 4)
		r, err := chol.Run(a, chol.Config{N: 24000, Tile: 2400, UseHost: true, Panel: chol.PanelHost, BulkSync: bulk})
		a.Fini()
		check(err)
		label := "pipelined (out-of-order)"
		if bulk {
			label = "bulk-synchronous passes"
		}
		fmt.Printf("  %-26s %4.0f GFlop/s\n", label, r.GFlops)
	}
	fmt.Println("ablation: asynchronous sink allocation (§VII's forthcoming feature, 64 buffers on 2 cards):")
	for _, async := range []bool{false, true} {
		rt, err := core.Init(core.Config{Machine: platform.HSWPlusKNC(2), Mode: core.ModeSim, AsyncAlloc: async})
		check(err)
		s, err := rt.StreamCreate(rt.Card(0), 0, 61)
		check(err)
		var last *core.Action
		for i := 0; i < 64; i++ {
			b, err := rt.Alloc1D("b", 1<<20)
			check(err)
			last, err = s.EnqueueXferAll(b, core.ToSink)
			check(err)
		}
		check(last.Wait())
		rt.ThreadSynchronize()
		label := "synchronous (paper's state)"
		if async {
			label = "asynchronous (implemented)"
		}
		spans, err := rt.Spans()
		check(err)
		fmt.Printf("  %-28s makespan %v\n", label, trace.Makespan(spans))
		rt.Fini()
	}
}

// chaosOptions are the chaos figure's settings, one field per flag.
type chaosOptions struct {
	prob     float64 // 0 uses 0.05
	seed     uint64
	retry    int // 0 uses 8
	backoff  time.Duration
	deadline time.Duration
	breaker  int
}

// chaosBackoff is -retry-backoff's default.
const chaosBackoff = 100 * time.Microsecond

// chaosOpts carries the chaos figure's flag values.
var chaosOpts chaosOptions

// withDefaults resolves the zero values that select a default.
func (o chaosOptions) withDefaults() chaosOptions {
	if o.prob <= 0 {
		o.prob = 0.05
	}
	if o.retry <= 0 {
		o.retry = 8
	}
	return o
}

// chaosResult is a chaos run's accounting, the counters its summary
// line prints.
type chaosResult struct {
	verify                                                       error // nil when the product matched the reference
	retries, deadlineHits, faultsInjected, reroutes, quarantines float64
	gflops                                                       float64
}

// runChaos runs the Real-mode hetero matmul with the deterministic
// fault injector installed and verifies the result against the
// reference product — proving the resilience layer delivers correct
// answers under transfer/kernel faults, not just that it retries. A
// private metrics registry isolates this run's counters, so the result
// is exactly the chaos run's accounting. onEvent, when non-nil,
// receives the run's lifecycle events.
func runChaos(o chaosOptions, onEvent func(core.RuntimeEvent)) chaosResult {
	o = o.withDefaults()
	plan := fault.Plan{
		Seed:          o.seed,
		TransferError: o.prob,
		KernelError:   o.prob,
		SlowLink:      o.prob,
		SlowLatency:   50 * time.Microsecond,
	}
	reg := metrics.New()
	inj := fault.NewInjector(plan, reg)
	a, err := app.Init(app.Options{
		Machine:        platform.HSWPlusKNC(1),
		Mode:           core.ModeReal,
		StreamsPerCard: 2,
		HostStreams:    2,
		Metrics:        reg,
		Faults:         inj,
		Retry: core.RetryPolicy{
			Max: o.retry, Backoff: o.backoff, BackoffMax: 50 * o.backoff,
			Jitter: 0.5, Seed: plan.Seed,
		},
		Deadline: o.deadline,
		Breaker:  core.BreakerPolicy{Threshold: o.breaker},
		OnEvent:  onEvent,
	})
	if err != nil {
		return chaosResult{verify: err}
	}
	matmul.RegisterExtra(a.RT)
	res, err := matmul.Run(a, matmul.Config{N: 96, Tile: 12, UseHost: true, LoadBalance: true, Verify: true})
	a.Fini()
	return chaosResult{
		verify:         err,
		retries:        reg.Total("hstreams_retries_total"),
		deadlineHits:   reg.Total("hstreams_deadline_exceeded_total"),
		faultsInjected: reg.Total("hstreams_faults_injected_total"),
		reroutes:       reg.Total("hstreams_rerouted_total"),
		quarantines:    reg.Total("hstreams_breaker_trips_total"),
		gflops:         res.GFlops,
	}
}

// chaos is the -fig chaos figure: runChaos under the flag values,
// printed as one summary line, journaling lifecycle events to onEvent.
// Exits nonzero when the result does not verify.
func chaos(onEvent func(core.RuntimeEvent)) {
	o := chaosOpts.withDefaults()
	fmt.Printf("== chaos: Real-mode hetero matmul under faults (p=%.3f seed=%d retry=%d deadline=%v breaker=%d) ==\n",
		o.prob, o.seed, o.retry, o.deadline, o.breaker)
	r := runChaos(o, onEvent)
	verify := "ok"
	if r.verify != nil {
		verify = fmt.Sprintf("FAILED (%v)", r.verify)
	}
	fmt.Printf("chaos: verify=%s retries=%.0f deadline-exceeded=%.0f faults-injected=%.0f reroutes=%.0f quarantines=%.0f gflops=%.1f\n",
		verify, r.retries, r.deadlineHits, r.faultsInjected, r.reroutes, r.quarantines, r.gflops)
	if r.verify != nil {
		os.Exit(1)
	}
}

// luClaims regenerates §VI's LU observations and the Simulia
// hStreams-vs-CUDA-Streams normalization experiment.
func luClaims() {
	fmt.Println("== §VI: LU (DGETRF) and the Simulia streaming comparison ==")
	hostN, err := lu.RunNative(platform.HSWPlusKNC(1), core.ModeSim, 8000, -1, 0)
	check(err)
	cardN, err := lu.RunNative(platform.HSWPlusKNC(1), core.ModeSim, 8000, 0, 0)
	check(err)
	fmt.Printf("untiled DGETRF n=8000: host %.0f GF/s vs coprocessor %.0f GF/s (paper: host wins)\n",
		hostN.GFlops, cardN.GFlops)
	for _, n := range []int{3000, 8000, 16000} {
		tile := n / 5
		if n >= 8000 {
			tile = 2000
		}
		a, err := app.Init(app.Options{Machine: platform.HSWPlusKNC(1), Mode: core.ModeSim, StreamsPerCard: 4, HostStreams: 3})
		check(err)
		tl, err := lu.RunTiled(a, lu.Config{N: n, Tile: tile, UseHost: true, PanelOnHost: true})
		a.Fini()
		check(err)
		nat, err := lu.RunNative(platform.HSWPlusKNC(1), core.ModeSim, n, -1, 0)
		check(err)
		fmt.Printf("  n=%6d: untiled host %4.0f GF/s, tiled hetero %4.0f GF/s\n", n, nat.GFlops, tl.GFlops)
	}
	fmt.Println("Simulia streaming comparison (supernode LDLT; paper: raw K40x 1.12-1.27x, normalized KNC 1.03-1.28x):")
	for _, n := range []int{9600, 13200} {
		cmp, err := solver.CompareStreaming(core.ModeSim, n, n/8)
		check(err)
		fmt.Printf("  n=%6d: hStreams/KNC %8v, CUDA/K40x %8v, raw K40x advantage %.2fx, normalized KNC advantage %.2fx\n",
			n, cmp.HStreamsSeconds, cmp.CUDASeconds, cmp.RawK40Advantage, cmp.NormalizedKNCAdvantage)
	}
}
