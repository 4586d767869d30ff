package metrics

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterSemantics(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "test counter")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotonic
	c.Add(0)   // ignored
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Get-or-create: same name returns the same series.
	if r.Counter("c_total", "test counter").Value() != 5 {
		t.Fatal("re-registration did not return the existing counter")
	}
}

func TestCounterVecSeparatesSeries(t *testing.T) {
	r := New()
	v := r.CounterVec("actions_total", "h", "kind")
	v.With("compute").Add(3)
	v.With("transfer").Add(7)
	if v.With("compute").Value() != 3 || v.With("transfer").Value() != 7 {
		t.Fatal("label values not separated")
	}
	if got := r.Total("actions_total"); got != 10 {
		t.Fatalf("Total = %v, want 10", got)
	}
	if got := r.Sum("actions_total", map[string]string{"kind": "compute"}); got != 3 {
		t.Fatalf("Sum(kind=compute) = %v, want 3", got)
	}
}

func TestGaugeSemantics(t *testing.T) {
	r := New()
	g := r.Gauge("depth", "test gauge")
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
	g.SetMax(5) // lower: no effect
	if g.Value() != 7 {
		t.Fatal("SetMax lowered the gauge")
	}
	g.SetMax(20)
	if g.Value() != 20 {
		t.Fatalf("SetMax = %d, want 20", g.Value())
	}
}

func TestHistogramSemantics(t *testing.T) {
	r := New()
	h := r.Histogram("lat_seconds", "test histogram", []float64{0.001, 0.01, 0.1})
	h.Observe(500 * time.Microsecond) // ≤ 0.001
	h.Observe(time.Millisecond)       // == bound: inclusive, ≤ 0.001
	h.Observe(5 * time.Millisecond)   // ≤ 0.01
	h.Observe(time.Second)            // +Inf
	h.Observe(-time.Second)           // clamped to 0 → first bucket
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	wantSum := 500*time.Microsecond + time.Millisecond + 5*time.Millisecond + time.Second
	if h.Sum() != wantSum {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 3 || len(cum) != 4 {
		t.Fatalf("bucket shapes: %d bounds, %d cum", len(bounds), len(cum))
	}
	// Cumulative: ≤1ms: 3 (two small + clamped), ≤10ms: 4, ≤100ms: 4, +Inf: 5.
	want := []int64{3, 4, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cum[%d] = %d, want %d (all %v)", i, cum[i], w, cum)
		}
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("d_seconds", "h", nil)
	h.Observe(time.Millisecond)
	bounds, _ := h.Buckets()
	if len(bounds) != len(DefBuckets) {
		t.Fatalf("default bounds = %d, want %d", len(bounds), len(DefBuckets))
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("a_total", "h").Inc()
	r.Gauge("b", "h").Set(1)
	r.Histogram("c_seconds", "h", nil).Observe(time.Second)
	r.CounterVec("d_total", "h", "k").With("v").Inc()
	r.GaugeVec("e", "h", "k").With("v").Set(2)
	r.HistogramVec("f_seconds", "h", nil, "k").With("v").Observe(time.Second)
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", got)
	}
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry WriteProm: err=%v len=%d", err, buf.Len())
	}
}

func TestMismatchedReregistrationPanics(t *testing.T) {
	r := New()
	r.Counter("x_total", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on type mismatch")
		}
	}()
	r.Gauge("x_total", "h")
}

// TestWritePromFormat validates the exposition output line by line:
// every family has HELP and TYPE, every sample line parses, histogram
// buckets are cumulative and end in +Inf.
func TestWritePromFormat(t *testing.T) {
	r := New()
	r.CounterVec("hs_actions_total", "Actions by kind.", "kind").With("compute").Add(3)
	r.CounterVec("hs_actions_total", "Actions by kind.", "kind").With("transfer").Add(2)
	r.Gauge("hs_depth", "Queue depth.").Set(4)
	h := r.HistogramVec("hs_dur_seconds", "Durations.", []float64{0.01, 1}, "kind").With(`we"ird\label`)
	h.Observe(5 * time.Millisecond)
	h.Observe(2 * time.Second)

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var help, typ int
	for _, ln := range lines {
		switch {
		case strings.HasPrefix(ln, "# HELP "):
			help++
		case strings.HasPrefix(ln, "# TYPE "):
			typ++
			fields := strings.Fields(ln)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line: %q", ln)
			}
			switch fields[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("bad type %q in %q", fields[3], ln)
			}
		default:
			// Sample line: name{labels} value — value must parse.
			i := strings.LastIndexByte(ln, ' ')
			if i < 0 {
				t.Fatalf("malformed sample line: %q", ln)
			}
			if _, err := strconv.ParseFloat(ln[i+1:], 64); err != nil {
				t.Fatalf("unparseable value in %q: %v", ln, err)
			}
		}
	}
	if help != 3 || typ != 3 {
		t.Fatalf("HELP/TYPE counts = %d/%d, want 3/3", help, typ)
	}
	for _, want := range []string{
		`hs_actions_total{kind="compute"} 3`,
		`hs_actions_total{kind="transfer"} 2`,
		"hs_depth 4",
		`hs_dur_seconds_bucket{kind="we\"ird\\label",le="+Inf"} 2`,
		`hs_dur_seconds_count{kind="we\"ird\\label"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Cumulative buckets: 0.01 → 1, 1 → 1, +Inf → 2.
	if !strings.Contains(out, `le="0.01"} 1`) || !strings.Contains(out, `le="1"} 1`) {
		t.Fatalf("buckets not cumulative:\n%s", out)
	}
}

// TestConcurrentHammer drives every metric type from many goroutines;
// run under -race this checks the lock-free paths, and the final
// counts check that no update was lost.
func TestConcurrentHammer(t *testing.T) {
	r := New()
	const workers = 8
	const perWorker = 2000
	cv := r.CounterVec("ham_total", "h", "w")
	g := r.Gauge("ham_depth", "h")
	peak := r.Gauge("ham_peak", "h")
	hv := r.HistogramVec("ham_seconds", "h", nil, "w")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := strconv.Itoa(w % 2) // shared series across workers
			for i := 0; i < perWorker; i++ {
				cv.With(label).Inc()
				g.Add(1)
				peak.SetMax(int64(i))
				hv.With(label).Observe(time.Duration(i) * time.Microsecond)
				g.Add(-1)
			}
		}(w)
	}
	// Concurrent readers exercise snapshot/export against writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.Snapshot()
			var buf bytes.Buffer
			_ = r.WriteProm(&buf)
		}
	}()
	wg.Wait()
	<-done
	if got := r.Total("ham_total"); got != workers*perWorker {
		t.Fatalf("lost counter updates: %v, want %d", got, workers*perWorker)
	}
	if got := r.Total("ham_seconds_count"); got != workers*perWorker {
		t.Fatalf("lost observations: %v, want %d", got, workers*perWorker)
	}
	if g.Value() != 0 {
		t.Fatalf("gauge = %d, want 0", g.Value())
	}
	if peak.Value() != perWorker-1 {
		t.Fatalf("peak = %d, want %d", peak.Value(), perWorker-1)
	}
}

func TestDefaultRegistryIsSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default registry must be a process-wide singleton")
	}
}
