package telemetry

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"hstreams/internal/metrics"
	"hstreams/internal/trace"
)

// base is an arbitrary fixed origin so every synthetic series in this
// file is deterministic.
var base = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

func TestStoreRingWraparound(t *testing.T) {
	st := NewStore(time.Minute, 8)
	for i := 0; i < 20; i++ {
		st.Put("x_total", nil, base.Add(time.Duration(i)*time.Second), float64(i))
	}
	s := st.Get("x_total", nil)
	if len(s.Points) != 8 {
		t.Fatalf("retained %d points, want ring size 8", len(s.Points))
	}
	for i, p := range s.Points {
		want := float64(12 + i) // oldest 12 dropped
		if p.V != want || !p.T.Equal(base.Add(time.Duration(12+i)*time.Second)) {
			t.Fatalf("point %d = {%v %v}, want value %v in order", i, p.T, p.V, want)
		}
	}
	if last := s.Last(); last.V != 19 {
		t.Fatalf("Last = %v, want 19", last.V)
	}
}

func TestStoreSeriesIdentity(t *testing.T) {
	st := NewStore(time.Minute, 4)
	labels := map[string]string{"domain": "KNC0"}
	st.Put("a", labels, base, 1)
	labels["domain"] = "mutated" // Put must have copied the map
	st.Put("a", map[string]string{"domain": "KNC0"}, base.Add(time.Second), 2)
	st.Put("a", map[string]string{"domain": "HSW"}, base, 3)
	st.Put("b", nil, base, 4)

	if got := st.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3 distinct series", got)
	}
	fam := st.Family("a")
	if len(fam) != 2 {
		t.Fatalf("Family(a) = %d series, want 2", len(fam))
	}
	s := st.Get("a", map[string]string{"domain": "KNC0"})
	if len(s.Points) != 2 || s.Points[1].V != 2 {
		t.Fatalf("KNC0 series = %+v, want two points ending at 2", s.Points)
	}
	now, ok := st.Newest()
	if !ok || !now.Equal(base.Add(time.Second)) {
		t.Fatalf("Newest = %v,%v, want %v,true", now, ok, base.Add(time.Second))
	}
}

func TestStoreDefaults(t *testing.T) {
	st := NewStore(0, 0)
	if st.Window() != DefWindow {
		t.Fatalf("Window = %v, want %v", st.Window(), DefWindow)
	}
	if got := st.Resolution(); got != DefWindow/DefSlots {
		t.Fatalf("Resolution = %v, want %v", got, DefWindow/DefSlots)
	}
	if _, ok := st.Newest(); ok {
		t.Fatal("empty store claims to have a newest sample")
	}
}

// TestBuildRateBornInWindow covers the baseline rule for counter
// series whose entire history is retained inside the window: they
// started at zero, so the windowed delta is the full last value, not
// last minus first (which would drop the first interval's increase).
func TestBuildRateBornInWindow(t *testing.T) {
	st := NewStore(time.Minute, 16)
	for i := 0; i <= 2; i++ {
		st.Put("born_total", nil, base.Add(time.Duration(i)*10*time.Second), float64(10*(i+1)))
	}
	tl := Build(st, nil, 0)
	if len(tl.Rates) != 1 {
		t.Fatalf("got %d rates, want 1: %+v", len(tl.Rates), tl.Rates)
	}
	r := tl.Rates[0]
	if r.Delta != 30 {
		t.Fatalf("born-in-window delta = %v, want full value 30", r.Delta)
	}
	if want := 30.0 / 20.0; r.PerSecond != want {
		t.Fatalf("rate = %v, want %v", r.PerSecond, want)
	}
}

// TestBuildRateClippedBaseline covers the other baseline rule: when
// the window clipped older points, the newest pre-cutoff point is the
// baseline (standard increase() behavior), so the delta covers
// exactly the window.
func TestBuildRateClippedBaseline(t *testing.T) {
	st := NewStore(30*time.Second, 128)
	for i := 0; i <= 60; i++ { // one point per second, value = 2i
		st.Put("clipped_total", nil, base.Add(time.Duration(i)*time.Second), float64(2*i))
	}
	tl := Build(st, nil, 0)
	if len(tl.Rates) != 1 {
		t.Fatalf("got %d rates, want 1", len(tl.Rates))
	}
	r := tl.Rates[0]
	// cutoff = t60-30s = t30; baseline is t29 (newest pre-cutoff), so
	// delta = 120-58 = 62 over 31s.
	if r.Delta != 62 {
		t.Fatalf("clipped delta = %v, want 62", r.Delta)
	}
	if want := 62.0 / 31.0; r.PerSecond != want {
		t.Fatalf("rate = %v, want %v", r.PerSecond, want)
	}
}

func TestBuildEmptyStore(t *testing.T) {
	tl := Build(NewStore(time.Minute, 8), nil, 0)
	if tl.Samples != 0 || len(tl.Rates) != 0 {
		t.Fatalf("empty store produced samples: %+v", tl)
	}
	if !strings.Contains(tl.Format(), "no samples retained") {
		t.Fatalf("empty Format() missing placeholder:\n%s", tl.Format())
	}
}

// putBuckets records one cumulative-histogram snapshot as the sampler
// would: bounds end with "+Inf", and cum holds one count per bound.
func putBuckets(st *Store, name string, labels map[string]string, at time.Time, bounds []string, cum []float64) {
	h := metrics.HistSample{Name: name, Labels: labels, Bounds: []float64{}, Count: int64(cum[len(cum)-1])}
	for i, le := range bounds {
		if le != "+Inf" {
			b, _ := strconv.ParseFloat(le, 64)
			h.Bounds = append(h.Bounds, b)
		}
		h.Cumulative = append(h.Cumulative, int64(cum[i]))
	}
	st.PutHistogram(h, at)
}

func TestBuildWindowedQuantiles(t *testing.T) {
	st := NewStore(time.Minute, 16)
	bounds := []string{"0.1", "1", "+Inf"}
	putBuckets(st, "lat_seconds", nil, base, bounds, []float64{0, 0, 0})
	putBuckets(st, "lat_seconds", nil, base.Add(10*time.Second), bounds, []float64{5, 10, 10})
	tl := Build(st, nil, 0)
	if len(tl.Latencies) != 1 {
		t.Fatalf("got %d latency views, want 1", len(tl.Latencies))
	}
	lv := tl.Latencies[0]
	if lv.Name != "lat_seconds" || lv.Count != 10 {
		t.Fatalf("latency view = %+v, want lat_seconds count 10", lv)
	}
	// 10 observations: rank 5 lands exactly at the top of the first
	// bucket [0, 0.1]; ranks 9.5 and 9.9 interpolate within (0.1, 1].
	if lv.P50 != 0.1 {
		t.Fatalf("p50 = %v, want 0.1", lv.P50)
	}
	if want := 0.1 + (1-0.1)*(9.5-5)/5; math.Abs(lv.P95-want) > 1e-12 {
		t.Fatalf("p95 = %v, want %v", lv.P95, want)
	}
	if want := 0.1 + (1-0.1)*(9.9-5)/5; math.Abs(lv.P99-want) > 1e-12 {
		t.Fatalf("p99 = %v, want %v", lv.P99, want)
	}
	// A rank landing in the +Inf bucket clamps to the highest finite
	// bound rather than inventing an infinite latency.
	if got := bucketQuantile(0.99, []float64{0.1, 1, math.Inf(1)}, []float64{5, 9, 10}); got != 1 {
		t.Fatalf("+Inf-bucket quantile = %v, want clamp to 1", got)
	}
}

// TestBuildExemplarFromRegistry checks the bucket-delta → registry
// exemplar join: the exemplar comes from the highest in-window
// populated bucket and carries the recorded span ID.
func TestBuildExemplarFromRegistry(t *testing.T) {
	reg := metrics.New()
	h := reg.Histogram("lat_seconds", "test latency", []float64{0.1, 1})
	h.ObserveEx(50*time.Millisecond, 7, int64(time.Second))
	h.ObserveEx(500*time.Millisecond, 8, int64(2*time.Second))

	st := NewStore(time.Minute, 16)
	sam := NewSampler(SamplerOptions{Registry: reg, Store: st, Interval: time.Hour})
	sam.SampleOnce(base)
	// The observer clock advances past the exemplar throttle so this
	// observation refreshes its bucket's exemplar slot.
	h.ObserveEx(700*time.Millisecond, 9, int64(4*time.Second))
	sam.SampleOnce(base.Add(10 * time.Second))

	// A 5s window clips the first snapshot, making it the baseline —
	// so the view counts only the observation between the snapshots.
	tl := Build(st, reg, 5*time.Second)
	var lv *LatencyView
	for i := range tl.Latencies {
		if tl.Latencies[i].Name == "lat_seconds" {
			lv = &tl.Latencies[i]
		}
	}
	if lv == nil {
		t.Fatalf("no lat_seconds latency view in %+v", tl.Latencies)
	}
	if lv.Count != 1 {
		t.Fatalf("windowed count = %d, want 1 (only the last observation)", lv.Count)
	}
	if lv.Exemplar == nil || lv.Exemplar.SpanID != 9 {
		t.Fatalf("exemplar = %+v, want span 9 from the populated (0.1,1] bucket", lv.Exemplar)
	}
}

func TestBuildUtilizationAttribution(t *testing.T) {
	st := NewStore(time.Minute, 16)
	t0, t1 := base, base.Add(10*time.Second)
	st.Put("hstreams_domain_streams", map[string]string{"domain": "KNC0"}, t0, 2)
	st.Put("hstreams_domain_streams", map[string]string{"domain": "KNC0"}, t1, 2)
	cl := map[string]string{"kind": "compute", "domain": "KNC0"}
	xl := map[string]string{"kind": "transfer", "domain": "KNC0"}
	st.Put("hstreams_action_duration_seconds_sum", cl, t0, 1)
	st.Put("hstreams_action_duration_seconds_sum", cl, t1, 7)
	st.Put("hstreams_action_duration_seconds_sum", xl, t0, 0)
	st.Put("hstreams_action_duration_seconds_sum", xl, t1, 2)

	tl := Build(st, nil, 0)
	if len(tl.Utilization) != 1 {
		t.Fatalf("got %d utilization rows, want 1", len(tl.Utilization))
	}
	uv := tl.Utilization[0]
	if uv.Domain != "KNC0" || uv.Streams != 2 {
		t.Fatalf("row = %+v, want KNC0 with 2 streams", uv)
	}
	// Both sum series are born inside the window, so busy is the full
	// last value per category.
	if uv.Categories[trace.CatCompute] != 7 || uv.Categories[trace.CatTransfer] != 2 {
		t.Fatalf("categories = %v, want compute=7 transfer=2", uv.Categories)
	}
	if uv.BusySeconds != 9 {
		t.Fatalf("busy = %v, want 9", uv.BusySeconds)
	}
	if want := 10.0 * 2; uv.CapacitySeconds != want {
		t.Fatalf("capacity = %v, want %v", uv.CapacitySeconds, want)
	}
	if want := 9.0 / 20.0; uv.Utilization != want {
		t.Fatalf("utilization = %v, want %v", uv.Utilization, want)
	}
}

func TestBuildQueuesAndLinks(t *testing.T) {
	st := NewStore(time.Minute, 16)
	t0, t1, t2 := base, base.Add(5*time.Second), base.Add(10*time.Second)
	ql := map[string]string{"stream": "KNC0.s1"}
	st.Put("hstreams_queue_depth", ql, t0, 1)
	st.Put("hstreams_queue_depth", ql, t1, 6)
	st.Put("hstreams_queue_depth", ql, t2, 3)
	st.Put("hstreams_queue_depth_peak", ql, t2, 9)
	ll := map[string]string{"src": "HSW", "dst": "KNC0"}
	st.Put("hstreams_link_bytes_total", ll, t0, 0)
	st.Put("hstreams_link_bytes_total", ll, t2, 1e6)
	st.Put("hstreams_link_transfers_total", ll, t0, 0)
	st.Put("hstreams_link_transfers_total", ll, t2, 4)
	st.Put("hstreams_link_occupancy_seconds_sum", ll, t0, 0)
	st.Put("hstreams_link_occupancy_seconds_sum", ll, t2, 2.5)

	tl := Build(st, nil, 0)
	if len(tl.Queues) != 1 {
		t.Fatalf("got %d queues, want 1", len(tl.Queues))
	}
	q := tl.Queues[0]
	if q.Depth != 3 || q.WindowMax != 6 || q.Peak != 9 {
		t.Fatalf("queue = %+v, want depth 3, window-max 6, peak 9", q)
	}
	if len(tl.Links) != 1 {
		t.Fatalf("got %d links, want 1", len(tl.Links))
	}
	l := tl.Links[0]
	if l.Src != "HSW" || l.Dst != "KNC0" {
		t.Fatalf("link = %+v", l)
	}
	if want := 1e6 / 10.0; l.BytesPerSecond != want {
		t.Fatalf("bandwidth = %v, want %v", l.BytesPerSecond, want)
	}
	if l.Transfers != 4 {
		t.Fatalf("transfers = %v, want 4", l.Transfers)
	}
	if want := 2.5 / 10.0; l.Occupancy != want {
		t.Fatalf("occupancy = %v, want %v", l.Occupancy, want)
	}
}

func TestBuildRateTruncation(t *testing.T) {
	st := NewStore(time.Minute, 8)
	for i := 0; i < maxRates+7; i++ {
		labels := map[string]string{"i": strings.Repeat("x", i+1)}
		st.Put("many_total", labels, base, 0)
		st.Put("many_total", labels, base.Add(time.Second), float64(i+1))
	}
	tl := Build(st, nil, 0)
	if len(tl.Rates) != maxRates {
		t.Fatalf("got %d rates, want cap %d", len(tl.Rates), maxRates)
	}
	if tl.RatesTruncated != 7 {
		t.Fatalf("RatesTruncated = %d, want 7", tl.RatesTruncated)
	}
	// Largest-first ordering: the biggest delta survives truncation.
	if tl.Rates[0].Delta != float64(maxRates+7) {
		t.Fatalf("top rate delta = %v, want %v", tl.Rates[0].Delta, float64(maxRates+7))
	}
}

func TestFormatRendersSections(t *testing.T) {
	st := NewStore(time.Minute, 16)
	st.Put("hstreams_actions_total", nil, base, 0)
	st.Put("hstreams_actions_total", nil, base.Add(time.Second), 42)
	putBuckets(st, "lat_seconds", nil, base, []string{"1", "+Inf"}, []float64{0, 0})
	putBuckets(st, "lat_seconds", nil, base.Add(time.Second), []string{"1", "+Inf"}, []float64{3, 3})
	st.Put("hstreams_domain_streams", map[string]string{"domain": "HSW"}, base.Add(time.Second), 1)
	out := Build(st, nil, 0).Format()
	for _, want := range []string{"timeline:", "rates:", "hstreams_actions_total", "latency (windowed):", "utilization:", "HSW"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format() missing %q:\n%s", want, out)
		}
	}
}
