package telemetry

import (
	"fmt"
	"math"
	"testing"
	"time"
)

func TestMatchLabels(t *testing.T) {
	labels := map[string]string{"domain": "KNC0", "kind": "compute"}
	if !MatchLabels(labels, nil) || !MatchLabels(labels, map[string]string{}) {
		t.Fatal("nil/empty match must match everything")
	}
	if !MatchLabels(labels, map[string]string{"domain": "KNC0"}) {
		t.Fatal("subset match failed")
	}
	if MatchLabels(labels, map[string]string{"domain": "HSW"}) {
		t.Fatal("wrong value matched")
	}
	if MatchLabels(labels, map[string]string{"absent": "x"}) {
		t.Fatal("absent key matched")
	}
}

func TestLatestOverWindowAndMatch(t *testing.T) {
	st := NewStore(time.Minute, 16)
	g1 := map[string]string{"domain": "KNC0"}
	g2 := map[string]string{"domain": "HSW"}
	st.Put("g", g1, base, 1)
	st.Put("g", g1, base.Add(30*time.Second), 5)
	st.Put("g", g2, base, 2) // only point is outside a narrow window

	vals := st.LatestOver("g", nil, 0)
	if len(vals) != 2 {
		t.Fatalf("full window: %d values, want 2", len(vals))
	}
	vals = st.LatestOver("g", g1, 10*time.Second)
	if len(vals) != 1 || vals[0].Value != 5 {
		t.Fatalf("narrow window match = %+v, want one value 5", vals)
	}
	// g2's only point fell out of the 10s window (newest is t+30s).
	if vals := st.LatestOver("g", g2, 10*time.Second); len(vals) != 0 {
		t.Fatalf("out-of-window series not omitted: %+v", vals)
	}
	if vals := st.LatestOver("absent", nil, 0); vals != nil {
		t.Fatalf("absent family = %+v, want nil", vals)
	}
}

func TestDeltaAndRateOver(t *testing.T) {
	st := NewStore(time.Minute, 32)
	for i := 0; i <= 4; i++ { // 10/s for 40s, born in-window
		st.Put("c_total", nil, base.Add(time.Duration(i)*10*time.Second), float64(100*i))
	}
	vals := st.DeltaOver("c_total", nil, 0)
	if len(vals) != 1 || vals[0].Value != 400 {
		t.Fatalf("born-in-window delta = %+v, want full value 400", vals)
	}
	rates := st.RateOver("c_total", nil, 0)
	if want := 400.0 / 40.0; len(rates) != 1 || rates[0].Value != want {
		t.Fatalf("rate = %+v, want %v", rates, want)
	}
	// A flat counter with a pre-window baseline keeps its zero delta
	// (no-increase != no-data). The narrow window clips the first
	// point, making it the baseline.
	st.Put("flat_total", nil, base, 7)
	st.Put("flat_total", nil, base.Add(35*time.Second), 7)
	st.Put("flat_total", nil, base.Add(40*time.Second), 7)
	if vals := st.DeltaOver("flat_total", nil, 10*time.Second); len(vals) != 1 || vals[0].Value != 0 {
		t.Fatalf("flat delta = %+v, want one zero value", vals)
	}
}

// TestRateOverSinglePointFallback covers the span fallback: one
// retained point is born-in-window (delta = its value) with zero
// elapsed span, so the rate divides by the window length instead of
// reporting an infinite rate.
func TestRateOverSinglePointFallback(t *testing.T) {
	st := NewStore(time.Minute, 8)
	st.Put("one_total", nil, base, 30)
	vals := st.RateOver("one_total", nil, 10*time.Second)
	if len(vals) != 1 {
		t.Fatalf("got %d values, want 1", len(vals))
	}
	if want := 30.0 / 10.0; vals[0].Value != want {
		t.Fatalf("single-point rate = %v, want window fallback %v", vals[0].Value, want)
	}
}

func TestQuantileOverBucketDeltas(t *testing.T) {
	st := NewStore(time.Minute, 16)
	bounds := []string{"0.1", "1", "+Inf"}
	putBuckets(st, "lat_seconds", nil, base, bounds, []float64{0, 0, 0})
	putBuckets(st, "lat_seconds", nil, base.Add(10*time.Second), bounds, []float64{5, 10, 10})
	vals := st.QuantileOver("lat_seconds", nil, 0.5, 0)
	if len(vals) != 1 {
		t.Fatalf("got %d quantile values, want 1", len(vals))
	}
	v := vals[0]
	if v.Count != 10 {
		t.Fatalf("count = %v, want 10", v.Count)
	}
	// 10 observations, rank 5 tops the first bucket exactly.
	if v.Value != 0.1 {
		t.Fatalf("p50 = %v, want 0.1", v.Value)
	}
	p99 := st.QuantileOver("lat_seconds", nil, 0.99, 0)
	if want := 0.1 + (1-0.1)*(9.9-5)/5; math.Abs(p99[0].Value-want) > 1e-12 {
		t.Fatalf("p99 = %v, want %v", p99[0].Value, want)
	}
}

// TestQuantileOverEmptyWindow covers the empty-window semantics: a
// histogram with retained buckets but zero in-window observations is
// omitted, not reported as a zero quantile.
func TestQuantileOverEmptyWindow(t *testing.T) {
	st := NewStore(time.Minute, 16)
	bounds := []string{"1", "+Inf"}
	// All observations land before the query window; the cumulative
	// counts then stay flat.
	putBuckets(st, "lat_seconds", nil, base, bounds, []float64{4, 8})
	putBuckets(st, "lat_seconds", nil, base.Add(30*time.Second), bounds, []float64{4, 8})
	putBuckets(st, "lat_seconds", nil, base.Add(40*time.Second), bounds, []float64{4, 8})
	if vals := st.QuantileOver("lat_seconds", nil, 0.99, 5*time.Second); len(vals) != 0 {
		t.Fatalf("flat-window histogram not omitted: %+v", vals)
	}
	// Widening the window to include the rise brings it back.
	if vals := st.QuantileOver("lat_seconds", nil, 0.99, 0); len(vals) != 1 {
		t.Fatalf("full-window quantile missing: %+v", vals)
	}
}

// TestQuantileOverRingWraparound drives enough snapshots through a
// tiny ring that the buckets' early history is overwritten, and checks
// the delta baseline degrades conservatively (window-first-point
// baseline) instead of inventing observations.
func TestQuantileOverRingWraparound(t *testing.T) {
	st := NewStore(time.Minute, 4) // ring wraps after 4 snapshots
	bounds := []string{"1", "+Inf"}
	for i := 0; i <= 9; i++ {
		cum := float64(10 * i)
		putBuckets(st, "lat_seconds", nil, base.Add(time.Duration(i)*time.Second), bounds, []float64{cum, cum})
	}
	// Retained snapshots: i=6..9 (cum 60..90). Full ring, nothing
	// clipped → baseline is the window's first retained point, so the
	// delta is 90-60=30, not the lifetime 90.
	vals := st.QuantileOver("lat_seconds", nil, 0.5, 0)
	if len(vals) != 1 {
		t.Fatalf("got %d values, want 1", len(vals))
	}
	if vals[0].Count != 30 {
		t.Fatalf("wraparound count = %v, want conservative 30", vals[0].Count)
	}
	// All mass in the first bucket [0,1]: the median interpolates to
	// the bucket midpoint.
	if vals[0].Value != 0.5 {
		t.Fatalf("quantile = %v, want 0.5", vals[0].Value)
	}
}

// TestQuantileOverGrouping checks that bucket series group by base
// labels and the match selector applies to the base labels, not the
// raw bucket labels (which carry le).
func TestQuantileOverGrouping(t *testing.T) {
	st := NewStore(time.Minute, 16)
	bounds := []string{"1", "+Inf"}
	a := map[string]string{"domain": "KNC0"}
	b := map[string]string{"domain": "HSW"}
	putBuckets(st, "lat_seconds", a, base, bounds, []float64{0, 0})
	putBuckets(st, "lat_seconds", a, base.Add(time.Second), bounds, []float64{4, 4})
	putBuckets(st, "lat_seconds", b, base, bounds, []float64{0, 0})
	putBuckets(st, "lat_seconds", b, base.Add(time.Second), bounds, []float64{0, 6})
	all := st.QuantileOver("lat_seconds", nil, 0.5, 0)
	if len(all) != 2 {
		t.Fatalf("got %d groups, want 2: %+v", len(all), all)
	}
	only := st.QuantileOver("lat_seconds", a, 0.5, 0)
	if len(only) != 1 || only[0].Labels["domain"] != "KNC0" || only[0].Count != 4 {
		t.Fatalf("matched group = %+v, want KNC0 count 4", only)
	}
}

// TestDecimate checks the display walk BuildStep thins a window with:
// at most one sample per step, newest first and always kept.
func TestDecimate(t *testing.T) {
	st := NewStore(time.Minute, 16)
	for i := 0; i < 10; i++ { // one point per second
		st.Put("g", nil, base.Add(time.Duration(i)*time.Second), float64(i))
	}
	w := st.rings["g"].window(base)
	var kept []float64
	w.thin(3*time.Second, func(i int) { kept = append(kept, w.r.val(i, 0)) })
	if want := []float64{9, 6, 3, 0}; fmt.Sprint(kept) != fmt.Sprint(want) {
		t.Fatalf("thinned to %v, want %v", kept, want)
	}
	n := 0
	w.thin(0, func(int) { n++ })
	if n != 10 {
		t.Fatalf("non-positive step kept %d of 10 samples", n)
	}
}

// TestBuildStepThinsSamples checks BuildStep decimates the displayed
// sample count while keeping deltas at full resolution.
func TestBuildStepThinsSamples(t *testing.T) {
	st := NewStore(time.Minute, 32)
	for i := 0; i <= 20; i++ {
		st.Put("c_total", nil, base.Add(time.Duration(i)*time.Second), float64(i))
	}
	full := Build(st, nil, 0)
	coarse := BuildStep(st, nil, 0, 5*time.Second)
	if coarse.StepNanos != int64(5*time.Second) {
		t.Fatalf("StepNanos = %d, want %d", coarse.StepNanos, int64(5*time.Second))
	}
	if coarse.Samples >= full.Samples {
		t.Fatalf("step did not thin samples: %d vs %d", coarse.Samples, full.Samples)
	}
	if len(coarse.Rates) != 1 || coarse.Rates[0].Delta != full.Rates[0].Delta {
		t.Fatalf("decimation changed the delta: %+v vs %+v", coarse.Rates, full.Rates)
	}
}
