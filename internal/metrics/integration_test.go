package metrics_test

import (
	"bytes"
	"strings"
	"testing"

	"hstreams/internal/app"
	"hstreams/internal/core"
	"hstreams/internal/matmul"
	"hstreams/internal/metrics"
	"hstreams/internal/platform"
)

// TestSimMatmulTelemetry runs the paper's tiled matmul in Sim mode
// against a private registry and checks that every layer reported:
// the core (durations, dependency stalls, queue depth), the executor
// (per-link bytes), and the exposition path (valid Prometheus text).
func TestSimMatmulTelemetry(t *testing.T) {
	reg := metrics.New()
	a, err := app.Init(app.Options{
		Machine:        platform.HSWPlusKNC(2),
		Mode:           core.ModeSim,
		StreamsPerCard: 4,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := matmul.Run(a, matmul.Config{N: 4800, Tile: 1200}); err != nil {
		t.Fatal(err)
	}
	a.Fini()

	for _, kind := range []string{"compute", "transfer"} {
		if n := reg.Sum("hstreams_action_duration_seconds_count", map[string]string{"kind": kind}); n == 0 {
			t.Errorf("no %s actions recorded in duration histogram", kind)
		}
		if d := reg.Sum("hstreams_action_duration_seconds_sum", map[string]string{"kind": kind}); d <= 0 {
			t.Errorf("%s duration sum = %v, want > 0 (virtual clock)", kind, d)
		}
	}
	// The tiled algorithm chains xfer→compute→xfer per panel, so some
	// actions must have waited on predecessors.
	if st := reg.Total("hstreams_dep_stall_seconds_sum"); st <= 0 {
		t.Errorf("dependency stall total = %v, want > 0", st)
	}
	// With 4 streams per card and tile chains in flight, at least one
	// stream's window grew past a single action.
	if peak := reg.Total("hstreams_queue_depth_peak"); peak < 1 {
		t.Errorf("queue depth peak total = %v, want >= 1", peak)
	}
	// Tiles moved host→card and results came back.
	if lb := reg.Total("hstreams_link_bytes_total"); lb <= 0 {
		t.Errorf("link bytes = %v, want > 0", lb)
	}
	if lx := reg.Total("hstreams_link_transfers_total"); lx <= 0 {
		t.Errorf("link transfers = %v, want > 0", lx)
	}
	if reg.Total("hstreams_action_errors_total") != 0 {
		t.Error("clean run reported action errors")
	}

	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP hstreams_action_duration_seconds",
		"# TYPE hstreams_action_duration_seconds histogram",
		`kind="compute"`,
		`kind="transfer"`,
		"hstreams_link_bytes_total{",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}
}

// TestLifecycleTotals checks every action is counted once on the way
// in and once on the way out, and that the two transfers move the
// buffer payload each over the link, in both executors.
func TestLifecycleTotals(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeSim, core.ModeReal} {
		reg := metrics.New()
		rt, err := core.Init(core.Config{
			Machine: platform.HSWPlusKNC(1),
			Mode:    mode,
			Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		rt.RegisterKernel("obs", func(*core.KernelCtx) {})

		card := rt.Card(0)
		s, err := rt.StreamCreate(card, 0, card.Spec().Cores())
		if err != nil {
			t.Fatal(err)
		}
		const bufBytes = 1 << 20
		b, err := rt.Alloc1D("obs", bufBytes)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.EnqueueXferAll(b, core.ToSink); err != nil {
			t.Fatal(err)
		}
		cost := platform.Cost{Flops: 1e6, Bytes: bufBytes}
		if _, err := s.EnqueueCompute("obs", nil, []core.Operand{b.All(core.InOut)}, cost); err != nil {
			t.Fatal(err)
		}
		if _, err := s.EnqueueXferAll(b, core.ToSource); err != nil {
			t.Fatal(err)
		}
		rt.ThreadSynchronize()
		if err := rt.Err(); err != nil {
			t.Fatalf("mode %v: run failed: %v", mode, err)
		}
		rt.Fini()

		const want = 3 // xfer, compute, xfer
		for _, family := range []string{
			"hstreams_actions_enqueued_total",
			"hstreams_stream_retired_total",
			"hstreams_actions_total",
		} {
			if got := reg.Total(family); got != want {
				t.Errorf("mode %v: %s = %v, want %d", mode, family, got, want)
			}
		}
		// Two transfers carry the buffer payload each. In Real mode the
		// card compute adds its run-function descriptor and completion,
		// a few dozen control bytes on the same link.
		got, payload := reg.Total("hstreams_link_bytes_total"), float64(2*bufBytes)
		if mode == core.ModeSim && got != payload || got < payload || got > payload+1024 {
			t.Errorf("mode %v: link bytes = %v, want %v (+ control messages in Real mode)", mode, got, payload)
		}
	}
}
