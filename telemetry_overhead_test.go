// Acceptance tests for the continuous-telemetry layer: the sampler,
// exemplar capture and health engine (SLO rule pack and stall watchdog
// on the sampler tick) must leave a fault-free run event-free, tick at
// a fixed allocation cost, and yield a fully-populated timeline. The
// 5% wall-clock budget they share with the flight recorder on the
// tier-1 matmul is BenchmarkTelemetryOverhead, run by make overhead.
package hstreams_test

import (
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hstreams"
	"hstreams/internal/app"
	"hstreams/internal/core"
	"hstreams/internal/health"
	"hstreams/internal/matmul"
	"hstreams/internal/metrics"
	"hstreams/internal/platform"
	"hstreams/internal/telemetry"
)

// observe builds, on reg, the steady-state observation stack the CLIs
// ship: a rolling store, the health engine (full default SLO rule pack,
// stall watchdog and journal) and a sampler at the 100ms interval
// hsbench uses that ticks the engine on every sample. (Faster sampling
// is not free on a small host: each snapshot walks every registry
// series, so on a single-core box a 2ms interval alone eats ~10% of
// the CPU; the budget holds for the shipped configuration, and
// telemetry.DefInterval is coarser still.)
func observe(reg *metrics.Registry) (*telemetry.Sampler, *health.Engine) {
	store := telemetry.NewStore(time.Minute, 256)
	engine := health.New(health.Options{
		Store:    store,
		Registry: reg,
		Journal:  health.NewJournal(256, reg),
	})
	sam := telemetry.NewSampler(telemetry.SamplerOptions{
		Registry: reg,
		Store:    store,
		Interval: 100 * time.Millisecond,
		OnSample: engine.Tick,
	})
	return sam, engine
}

// maxTickAllocs is the steady-state allocation count of one health
// engine tick over the tier-1 matmul's registry.
const maxTickAllocs = 25

// TestTelemetryStaysOffTheHotPath is the tier-1 proxy for the
// telemetry overhead budget. One tier-1 matmul runs under the full
// observation stack with a lifecycle-event hook installed; the run
// must take at least one sample and tick the health engine at least
// once, and, being fault-free, emit zero events: that keeps the
// hot-path finish at a single nil check (the lazily-allocated resNote
// contract). A steady-state engine tick must then allocate at most
// maxTickAllocs objects.
func TestTelemetryStaysOffTheHotPath(t *testing.T) {
	reg := metrics.New()
	sam, engine := observe(reg)
	var events atomic.Int64
	sam.Start()
	runTier1Matmul(t, app.Options{
		Metrics: reg,
		Flight:  hstreams.NewFlightRecorder(1 << 12),
		OnEvent: func(core.RuntimeEvent) { events.Add(1) },
	})
	sam.Stop()

	if reg.Total("hstreams_telemetry_samples_total") == 0 {
		t.Fatal("telemetry arm took no sampler snapshots")
	}
	if reg.Total("hstreams_health_ticks_total") == 0 {
		t.Fatal("telemetry arm never ticked the health engine")
	}
	if n := events.Load(); n != 0 {
		t.Fatalf("fault-free runs emitted %d lifecycle events; the hot path must stay event-free", n)
	}

	now := time.Now()
	tick := 0
	allocs := testing.AllocsPerRun(50, func() {
		tick++
		engine.Tick(now.Add(time.Duration(tick) * 100 * time.Millisecond))
	})
	if allocs > maxTickAllocs {
		t.Fatalf("health engine tick = %.1f allocations, want ≤ %d", allocs, maxTickAllocs)
	}
	t.Logf("health engine tick: %.1f allocations", allocs)
}

// telemetryWall runs reps tier-1 matmuls and returns the minimum
// single-run wall time. The telemetry arm carries the full observation
// stack (flight recorder, exemplar capture, which is on whenever
// tracing is, and observe's sampler and health engine), started before
// the first rep and stopped after the last so every timed run executes
// under continuous sampling and evaluation; the bare arm runs with
// causal tracing disabled and no sampler. Both arms carry the
// recorder, so the quotient isolates the observation stack rather
// than also counting the recorder's attachment cost against it, and
// both install a lifecycle-event hook, as TestTelemetryStaysOffTheHotPath
// does.
func telemetryWall(tb testing.TB, telem bool, flight *hstreams.FlightRecorder, reps int) time.Duration {
	tb.Helper()
	reg := metrics.New()
	if telem {
		sam, _ := observe(reg)
		sam.Start()
		defer sam.Stop()
	}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		d := runTier1Matmul(tb, app.Options{
			Metrics:            reg,
			Flight:             flight,
			DisableCausalTrace: !telem,
			OnEvent:            func(core.RuntimeEvent) {},
		})
		best = min(best, d)
	}
	return best
}

// telemetryOverheadSample is one interleaved measurement: per arm,
// each round yields min-of-reps, and the overhead estimate is the
// median of the per-round telem/bare ratios (see overheadSample in
// critpath_test.go for why per-round ratios rather than a quotient of
// per-arm medians: rounds run their two arms back-to-back, so the
// machine-speed drift this container exhibits cancels inside each
// ratio). The returned arm times are per-arm medians, for reporting.
func telemetryOverheadSample(tb testing.TB, flight *hstreams.FlightRecorder) (telem, bare, overheadPct float64) {
	tb.Helper()
	const rounds, reps = 24, 16
	telemMins := make([]float64, 0, rounds)
	bareMins := make([]float64, 0, rounds)
	measure := func(withTelem bool) {
		runtime.GC()
		d := telemetryWall(tb, withTelem, flight, reps)
		if withTelem {
			telemMins = append(telemMins, d.Seconds())
		} else {
			bareMins = append(bareMins, d.Seconds())
		}
	}
	for i := 0; i < rounds; i++ {
		first := i%2 == 0
		measure(first)
		measure(!first)
	}
	ratios := make([]float64, rounds)
	for i := range ratios {
		ratios[i] = telemMins[i] / bareMins[i]
	}
	return median(telemMins), median(bareMins), 100 * (median(ratios) - 1)
}

// BenchmarkTelemetryOverhead holds the combined trace + telemetry +
// health stack to the 5% budget against a bare run on the tier-1
// matmul and fails the run over budget; make overhead runs it once
// (-benchtime 1x) inside make check. A single over-budget sample
// re-measures once, failing only on two independent over-budget
// measurements. The bound is meaningless under the race detector,
// whose instrumentation distorts both arms.
func BenchmarkTelemetryOverhead(b *testing.B) {
	flight := hstreams.NewFlightRecorder(1 << 12)
	// Warm up both arms so first-run allocation noise hits neither.
	telemetryWall(b, true, flight, 1)
	telemetryWall(b, false, flight, 1)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	telem, bare, overhead := telemetryOverheadSample(b, flight)
	if overhead > 5 {
		b.Logf("overhead %.2f%% over budget; re-measuring once to reject background-load noise", overhead)
		telem, bare, overhead = telemetryOverheadSample(b, flight)
	}
	b.ReportMetric(overhead, "overhead_%")
	b.Logf("telemetry %.6fs, bare %.6fs, overhead %.2f%% (median per-round ratio over 24 interleaved rounds of min-of-16 runs)", telem, bare, overhead)
	if overhead > 5 {
		b.Fatalf("telemetry overhead %.2f%% exceeds the 5%% budget in two independent measurements (telemetry %.6fs, bare %.6fs)",
			overhead, telem, bare)
	}
}

// TestTimelineSmoke runs one sampled tier-1 matmul and asserts the
// derived timeline is fully populated: counter rates, latency
// quantiles carrying flight-recorder exemplars, per-domain
// utilization with critical-path categories, and link views.
func TestTimelineSmoke(t *testing.T) {
	reg := metrics.New()
	st := telemetry.NewStore(time.Minute, 512)
	sam := telemetry.NewSampler(telemetry.SamplerOptions{Registry: reg, Store: st, Interval: time.Millisecond})
	a, err := app.Init(app.Options{
		Machine:        platform.HSWPlusKNC(2),
		Mode:           core.ModeSim,
		StreamsPerCard: 4,
		HostStreams:    3,
		Metrics:        reg,
		Flight:         hstreams.NewFlightRecorder(1 << 14),
	})
	if err != nil {
		t.Fatal(err)
	}
	sam.Start()
	if _, err := matmul.Run(a, matmul.Config{N: 9600, Tile: 2400, UseHost: true, LoadBalance: true}); err != nil {
		t.Fatal(err)
	}
	sam.Stop()
	a.Fini()

	tl := hstreams.BuildTimeline(st, reg, 0)
	if tl.Samples == 0 {
		t.Fatal("sampled run retained no telemetry samples")
	}
	var sawActions bool
	for _, r := range tl.Rates {
		if r.Name == "hstreams_actions_total" {
			sawActions = true
		}
	}
	if !sawActions {
		t.Fatalf("no hstreams_actions_total rate in %d rate rows", len(tl.Rates))
	}
	var sawExemplar bool
	for _, l := range tl.Latencies {
		if l.Exemplar != nil && l.Exemplar.SpanID != 0 {
			sawExemplar = true
		}
	}
	if !sawExemplar {
		t.Fatal("no latency view carries a flight-recorder exemplar")
	}
	if len(tl.Utilization) < 3 {
		t.Fatalf("got %d utilization rows, want host + 2 cards", len(tl.Utilization))
	}
	for _, u := range tl.Utilization {
		if u.Streams == 0 {
			t.Fatalf("domain %s reports zero streams", u.Domain)
		}
		if strings.HasPrefix(u.Domain, "KNC") && u.Categories["compute"] == 0 {
			t.Fatalf("card %s shows no compute busy time: %+v", u.Domain, u)
		}
	}
	if len(tl.Links) == 0 {
		t.Fatal("no link views despite card transfers")
	}
	out := tl.Format()
	for _, want := range []string{"rates:", "latency (windowed):", "utilization:", "links:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format() missing %q section:\n%s", want, out)
		}
	}
}
