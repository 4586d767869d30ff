package matmul

import (
	"testing"
	"time"

	"hstreams/internal/app"
	"hstreams/internal/core"
	"hstreams/internal/platform"
	"hstreams/internal/trace"
)

func simApp(t *testing.T, m *platform.Machine, hostStreams int) *app.App {
	t.Helper()
	a, err := app.Init(app.Options{
		Machine:        m,
		Mode:           core.ModeSim,
		StreamsPerCard: 4,
		HostStreams:    hostStreams,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Fini)
	return a
}

func TestRealHeteroMatmulCorrect(t *testing.T) {
	// Host + 1 card, all domains computing, verified against a
	// reference product.
	a, err := app.Init(app.Options{
		Machine:        platform.HSWPlusKNC(1),
		Mode:           core.ModeReal,
		StreamsPerCard: 2,
		HostStreams:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Fini()
	RegisterExtra(a.RT)
	res, err := Run(a, Config{N: 48, Tile: 12, UseHost: true, LoadBalance: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.GFlops <= 0 {
		t.Fatal("no performance measured")
	}
	used := 0
	for _, c := range res.PanelsPerDomain {
		if c > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("work not distributed: %v", res.PanelsPerDomain)
	}
}

func TestRealOffloadOnlyMatmulCorrect(t *testing.T) {
	a, err := app.Init(app.Options{
		Machine:        platform.HSWPlusKNC(1),
		Mode:           core.ModeReal,
		StreamsPerCard: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Fini()
	RegisterExtra(a.RT)
	if _, err := Run(a, Config{N: 36, Tile: 12, Verify: true}); err != nil {
		t.Fatal(err)
	}
}

func TestBadTilingRejected(t *testing.T) {
	a := simApp(t, platform.HSWPlusKNC(1), 0)
	if _, err := Run(a, Config{N: 100, Tile: 33}); err != ErrBadTiling {
		t.Fatalf("err = %v, want ErrBadTiling", err)
	}
}

func TestSimHeteroBeatsOffloadBeatsNative(t *testing.T) {
	// The Fig. 6 ordering at a fixed size: HSW+2KNC > HSW+1KNC >
	// 1 KNC offload > HSW native.
	const n, tb = 14400, 2400
	run := func(cards, hostStreams int) float64 {
		a := simApp(t, platform.HSWPlusKNC(cards), hostStreams)
		res, err := Run(a, Config{N: n, Tile: tb, UseHost: hostStreams > 0, LoadBalance: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.GFlops
	}
	h2 := run(2, 3)
	h1 := run(1, 3)
	off1 := run(1, 0)
	native := run(0, 1) // single host stream = native-ish
	if !(h2 > h1 && h1 > off1 && off1 > native) {
		t.Fatalf("Fig 6 ordering violated: HSW+2KNC=%.0f HSW+1KNC=%.0f 1KNC=%.0f native=%.0f",
			h2, h1, off1, native)
	}
}

func TestSimLoadBalancingHelpsIVB(t *testing.T) {
	// Fig. 6: IVB host is much slower than a KNC, so proportional
	// panel assignment beats an even split by ~1.5×.
	const n, tb = 21600, 2400
	run := func(balance bool) float64 {
		a := simApp(t, platform.IVBPlusKNC(2), 3)
		res, err := Run(a, Config{N: n, Tile: tb, UseHost: true, LoadBalance: balance})
		if err != nil {
			t.Fatal(err)
		}
		return res.GFlops
	}
	bal := run(true)
	nobal := run(false)
	ratio := bal / nobal
	if ratio < 1.3 || ratio > 2.1 {
		t.Fatalf("load balance gain = %.2f (bal %.0f vs nobal %.0f), want ≈1.58 (paper)", ratio, bal, nobal)
	}
}

func TestSimTransfersOverlapCompute(t *testing.T) {
	// The whole point of streaming: most transfer time must hide
	// under compute.
	a := simApp(t, platform.HSWPlusKNC(1), 0)
	if _, err := Run(a, Config{N: 9600, Tile: 2400}); err != nil {
		t.Fatal(err)
	}
	spans, err := a.RT.Spans()
	if err != nil {
		t.Fatal(err)
	}
	xfer := trace.BusyTime(spans, trace.Transfer)
	ov := trace.OverlapTime(spans, trace.Compute, trace.Transfer)
	if ov < xfer/2 {
		t.Fatalf("poor pipelining: only %v of %v transfer time overlapped", ov, xfer)
	}
}

// TestSpanStatsMatchSchedule checks the span-derived schedule
// statistics against naive recomputation on the tier-1 matmul: the
// numbers every figure and ablation quotes come from these functions.
func TestSpanStatsMatchSchedule(t *testing.T) {
	a := simApp(t, platform.HSWPlusKNC(1), 0)
	if _, err := Run(a, Config{N: 9600, Tile: 2400}); err != nil {
		t.Fatal(err)
	}
	spans, err := a.RT.Spans()
	if err != nil {
		t.Fatal(err)
	}
	first, last := spans[0].Launch, spans[0].Finish
	var total time.Duration
	for i := range spans {
		if spans[i].Launch < first {
			first = spans[i].Launch
		}
		if spans[i].Finish > last {
			last = spans[i].Finish
		}
		total += spans[i].Dur()
	}
	if got := trace.Makespan(spans); got != last-first || got <= 0 {
		t.Fatalf("Makespan = %v, want latest finish - earliest launch = %v", got, last-first)
	}
	compute := trace.BusyTime(spans, trace.Compute)
	xfer := trace.BusyTime(spans, trace.Transfer)
	if sum := compute + xfer + trace.BusyTime(spans, trace.Sync); sum != total {
		t.Fatalf("busy time over the three kinds = %v, want the summed span durations %v", sum, total)
	}
	ov := trace.OverlapTime(spans, trace.Compute, trace.Transfer)
	if rev := trace.OverlapTime(spans, trace.Transfer, trace.Compute); rev != ov {
		t.Fatalf("OverlapTime is not symmetric: %v vs %v", ov, rev)
	}
	if ov > compute || ov > xfer {
		t.Fatalf("overlap %v exceeds a side's busy time (compute %v, transfer %v)", ov, compute, xfer)
	}
}

func TestPanelAssignmentBalanced(t *testing.T) {
	a := simApp(t, platform.IVBPlusKNC(2), 2)
	res, err := Run(a, Config{N: 24000, Tile: 2400, UseHost: true, LoadBalance: true})
	if err != nil {
		t.Fatal(err)
	}
	// IVB (475 GF/s) must own fewer panels than each KNC (~980).
	host := res.PanelsPerDomain[0]
	for c := 1; c <= 2; c++ {
		if host >= res.PanelsPerDomain[c] {
			t.Fatalf("host owns %d panels, card %d owns %d — no load balancing", host, c, res.PanelsPerDomain[c])
		}
	}
}

// TestTuningStreamCount reproduces the other §VI tuning axis: the
// number of streams. One full-width stream serializes independent
// tiles; a handful of narrower streams raises aggregate throughput
// (better per-core granularity and parallel efficiency).
func TestTuningStreamCount(t *testing.T) {
	const n, tile = 19200, 2400
	run := func(streams int) float64 {
		a, err := app.Init(app.Options{
			Machine:        platform.HSWPlusKNC(1),
			Mode:           core.ModeSim,
			StreamsPerCard: streams,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Fini()
		res, err := Run(a, Config{N: n, Tile: tile})
		if err != nil {
			t.Fatal(err)
		}
		return res.GFlops
	}
	g1 := run(1)
	g4 := run(4)
	t.Logf("stream sweep at n=%d: 1→%.0f, 4→%.0f GF/s", n, g1, g4)
	if g4 <= g1 {
		t.Fatalf("4 streams (%.0f) not faster than 1 (%.0f)", g4, g1)
	}
}
