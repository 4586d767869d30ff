// Acceptance tests for the causal-tracing subsystem: the critical-path
// report must account for the measured makespan, and the flight
// recorder must record exactly one span per retired action. The 5%
// wall-clock budget for leaving it on is BenchmarkTraceOverhead, run
// by make overhead.
package hstreams_test

import (
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"hstreams"
	"hstreams/internal/app"
	"hstreams/internal/core"
	"hstreams/internal/matmul"
	"hstreams/internal/metrics"
	"hstreams/internal/platform"
	"hstreams/internal/trace"
)

// runMatmulTraced runs the Fig. 6-class matmul under a private flight
// recorder and returns the timeline makespan of the run's spans plus
// the critical-path report of the same spans.
func runMatmulTraced(t *testing.T) (time.Duration, *hstreams.CritReport) {
	t.Helper()
	flight := hstreams.NewFlightRecorder(1 << 15)
	a, err := app.Init(app.Options{
		Machine:        platform.HSWPlusKNC(2),
		Mode:           core.ModeSim,
		StreamsPerCard: 4,
		HostStreams:    3,
		Metrics:        metrics.New(),
		Flight:         flight,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := matmul.Run(a, matmul.Config{N: 9600, Tile: 2400, UseHost: true, LoadBalance: true}); err != nil {
		t.Fatal(err)
	}
	spans, err := a.RT.Spans()
	if err != nil {
		t.Fatal(err)
	}
	a.Fini()
	return trace.Makespan(spans), hstreams.AnalyzeCriticalPath(spans)
}

// TestCritPathAccountsForMakespan is the PR's acceptance criterion:
// the per-category attribution must sum to within 5% of the measured
// makespan (by construction it sums to the report's own makespan
// exactly; the 5% covers the different origin conventions of the
// timeline statistic, which starts at the first launch, and the span
// DAG, which starts at the first enqueue).
func TestCritPathAccountsForMakespan(t *testing.T) {
	makespan, rep := runMatmulTraced(t)
	if len(rep.Steps) == 0 {
		t.Fatal("no critical path extracted")
	}
	if rep.CategorySum() != rep.Makespan {
		t.Fatalf("CategorySum %v != report makespan %v", rep.CategorySum(), rep.Makespan)
	}
	diff := rep.CategorySum() - makespan
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.05*float64(makespan) {
		t.Fatalf("category sum %v vs measured makespan %v: off by %.1f%%, want <= 5%%",
			rep.CategorySum(), makespan, 100*float64(diff)/float64(makespan))
	}
	// The report must tell a coherent tuning story: compute on the
	// path, and every step causally ordered (non-overlapping segments).
	if rep.Categories["compute"] == 0 {
		t.Fatal("critical path of a matmul has no compute time")
	}
	for i := 1; i < len(rep.Steps); i++ {
		if rep.Steps[i].Arrive < rep.Steps[i-1].Span.Finish {
			t.Fatalf("step %d arrives at %v before predecessor finished at %v",
				i, rep.Steps[i].Arrive, rep.Steps[i-1].Span.Finish)
		}
	}
}

// runTier1Matmul runs the tier-1 matmul configuration
// (BenchmarkFig6Matmul's HSW+2KNC case, N=19200) once on a Sim app
// built from opts and returns the run's wall time. Virtual durations
// are identical whatever opts observe; the wall clock is what
// observation can slow down.
func runTier1Matmul(tb testing.TB, opts app.Options) time.Duration {
	tb.Helper()
	opts.Machine = platform.HSWPlusKNC(2)
	opts.Mode = core.ModeSim
	opts.StreamsPerCard = 4
	opts.HostStreams = 3
	a, err := app.Init(opts)
	if err != nil {
		tb.Fatal(err)
	}
	defer a.Fini()
	start := time.Now()
	if _, err := matmul.Run(a, matmul.Config{N: 19200, Tile: 2400, UseHost: true, LoadBalance: true}); err != nil {
		tb.Fatal(err)
	}
	return time.Since(start)
}

// TestTraceSpansMatchActions is the tier-1 proxy for the trace
// overhead budget, beside core's TestTracingAddsNoAllocs: on the
// tier-1 matmul the flight recorder records exactly one span per
// retired action, so the recording cost per action is fixed.
func TestTraceSpansMatchActions(t *testing.T) {
	reg := metrics.New()
	flight := hstreams.NewFlightRecorder(1 << 12)
	runTier1Matmul(t, app.Options{Metrics: reg, Flight: flight})
	spans, retired := flight.Total(), reg.Total("hstreams_stream_retired_total")
	if retired == 0 || float64(spans) != retired {
		t.Fatalf("flight recorded %d spans for %.0f retired actions, want one span per action", spans, retired)
	}
	t.Logf("%d spans for %.0f retired actions", spans, retired)
}

// matmulWall runs reps tier-1 matmuls, traced or with causal tracing
// disabled, and returns the minimum single-run wall time. The minimum,
// not the total, is the statistic: a descheduling or background-load
// spike only ever lengthens a rep, so min-of-reps converges on the
// quiet-machine cost of each arm.
func matmulWall(tb testing.TB, disable bool, flight *hstreams.FlightRecorder, reps int) time.Duration {
	tb.Helper()
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		d := runTier1Matmul(tb, app.Options{Metrics: metrics.New(), Flight: flight, DisableCausalTrace: disable})
		best = min(best, d)
	}
	return best
}

// overheadSample is one full interleaved measurement of the flight
// recorder's relative cost on the tier-1 matmul. Per arm, each round
// yields min-of-reps (spikes only lengthen a rep, so the min is the
// quiet-machine cost). The overhead estimate is the median of the
// PER-ROUND ratios, not the ratio of per-arm medians: this class of
// container drifts through multi-minute speed waves far larger than
// the ~3% signal, and a wave landing on round k inflates both of that
// round's arms — which run back-to-back — by the same factor, so the
// ratio cancels it. The quotient of independently-taken medians does
// not get that cancellation (each arm's median can come from a
// different round), which made the gate flap by whole percentage
// points under drift. Rounds are kept short (min-of-16) and many
// (24): a short round pairs its two arms closer in time, so more of
// the drift cancels inside each ratio, and more rounds give the
// median more points to reject the ratios drift does corrupt. Round
// order still alternates so any intra-round drift spreads across
// both arms. The returned arm times are the per-arm medians, for
// reporting only.
func overheadSample(tb testing.TB, flight *hstreams.FlightRecorder) (traced, untraced, overheadPct float64) {
	tb.Helper()
	const rounds, reps = 24, 16
	tracedMins := make([]float64, 0, rounds)
	untracedMins := make([]float64, 0, rounds)
	measure := func(disable bool) {
		runtime.GC()
		d := matmulWall(tb, disable, flight, reps)
		if disable {
			untracedMins = append(untracedMins, d.Seconds())
		} else {
			tracedMins = append(tracedMins, d.Seconds())
		}
	}
	for i := 0; i < rounds; i++ {
		first := i%2 == 0
		measure(first)
		measure(!first)
	}
	ratios := make([]float64, rounds)
	for i := range ratios {
		ratios[i] = tracedMins[i] / untracedMins[i]
	}
	return median(tracedMins), median(untracedMins), 100 * (median(ratios) - 1)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// BenchmarkTraceOverhead holds the flight recorder to its 5% budget on
// the tier-1 matmul and fails the run over budget; make overhead runs
// it once (-benchtime 1x) inside make check. The true recording cost
// on a shared 2-vCPU container is ~3–4.5%, inside the budget but with
// thin margin, so a single over-budget sample re-measures once: the
// gate fails only on two independent over-budget measurements, which
// background load is very unlikely to produce but a genuine hot-path
// regression will. The bound is meaningless under the race detector,
// whose instrumentation distorts both arms. The 5% excludes what the
// retained spans cost the garbage collector, since both arms run with
// it off; internal/trace's BenchmarkFlightRingGC reports that cost,
// and make overhead runs it after this one.
func BenchmarkTraceOverhead(b *testing.B) {
	flight := hstreams.NewFlightRecorder(1 << 12)
	// Warm up both variants so first-run allocation noise hits
	// neither side.
	matmulWall(b, false, flight, 1)
	matmulWall(b, true, flight, 1)
	// Collect explicitly between samples and keep the pacer out of the
	// timed region: a GC cycle landing inside one arm but not the
	// other would swamp the ~100ns/span recording cost being measured.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	traced, untraced, overhead := overheadSample(b, flight)
	if overhead > 5 {
		b.Logf("overhead %.2f%% over budget; re-measuring once to reject background-load noise", overhead)
		traced, untraced, overhead = overheadSample(b, flight)
	}
	b.ReportMetric(overhead, "overhead_%")
	b.Logf("traced %.6fs, untraced %.6fs, overhead %.2f%% (median per-round ratio over 24 interleaved rounds of min-of-16 runs)", traced, untraced, overhead)
	if overhead > 5 {
		b.Fatalf("tracing overhead %.2f%% exceeds the 5%% budget in two independent measurements (traced %.6fs, untraced %.6fs)",
			overhead, traced, untraced)
	}
}
