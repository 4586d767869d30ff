package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// TestMain lets the test binary serve as its own idle spinner, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if isSpinner() {
		spin()
	}
	os.Exit(m.Run())
}

// testEnv is a run scaled down to a smoke test: short windows, one
// set-up, a hundredth of the fixed work. It checks the plumbing, not
// the numbers, so it holds no timing assertion and runs unchanged
// under the race detector.
func testEnv(t *testing.T) (*benchSpec, env) {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	t.Cleanup(func() {
		if t.Failed() {
			t.Log(log.String())
		}
	})
	return spec, env{seed: 7, dur: 300 * time.Millisecond, reps: 1, root: root, log: &log, scale: 100}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkResult asserts that a result carries exactly the metrics defs
// names, each with its unit and a finite value, and no failure.
func checkResult(t *testing.T, what string, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", what, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !metricName.MatchString(d.Name):
			t.Errorf("%s: metric name %q is outside [A-Za-z0-9_.-]", what, d.Name)
		case !ok:
			t.Errorf("%s: metric %s is missing", what, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, d.Name, m.Unit, d.Unit)
		case m.Value != m.Value || m.Value-m.Value != 0:
			t.Errorf("%s: metric %s is %v", what, d.Name, m.Value)
		}
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("%s: result does not marshal: %v", what, err)
	}
}

// TestEveryWorkloadUntraced runs each workload for a moment and
// checks that every end-to-end metric of BENCHMARK.json comes out,
// none of them zero.
func TestEveryWorkloadUntraced(t *testing.T) {
	spec, base := testEnv(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w := findWorkload(sw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json names workload %q, the program has none", sw.Name)
		}
		res, err := runOne(spec, w, base, false)
		if err != nil {
			t.Fatalf("%s: %v", sw.Name, err)
		}
		checkResult(t, sw.Name, res, spec.EndToEnd)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; they must never be 0", sw.Name, name, m.Value)
			}
		}
	}
}

// TestTracedRun makes one traced pass — which runs all five workloads
// with spans on and every standalone probe — and checks that every
// per-layer metric of BENCHMARK.json comes out and the span file is
// written.
func TestTracedRun(t *testing.T) {
	spec, base := testEnv(t)
	res, err := runOne(spec, findWorkload("serve_open"), base, true)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "traced serve_open", res, spec.PerLayer)
	raw, err := os.ReadFile(filepath.Join(base.outDir(), "trace_serve_open.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Workload != "serve_open" || tf.Seed != base.seed || len(tf.Spans) == 0 {
		t.Errorf("span file: workload %q seed %d, %d spans", tf.Workload, tf.Seed, len(tf.Spans))
	}
	ids := map[int64]bool{}
	for _, s := range tf.Spans {
		ids[s.ID] = true
	}
	for _, s := range tf.Spans {
		if s.End < s.Start || (s.Parent != 0 && !ids[s.Parent]) {
			t.Fatalf("span %+v ends before it starts or names a parent that is not in the file", s)
		}
	}
}

// TestSeedDeterminesInputs checks that everything a workload
// generates is a function of the seed alone.
func TestSeedDeterminesInputs(t *testing.T) {
	mix := func(seed int64) (out []request) {
		for c := 0; c < 2; c++ {
			g := newMixGen(seed, c)
			for i := 0; i < 3000; i++ {
				out = append(out, g.next()...)
			}
		}
		return out
	}
	inputs := func(seed int64) []any {
		return []any{
			tilePerms(seed, 8),
			arrivals(seed, openRate, 2*time.Second),
			openChoices(seed, 1000),
			mix(seed),
		}
	}
	a, b, c := inputs(1), inputs(1), inputs(2)
	for i, name := range []string{"tile permutations", "arrival schedule", "serve_open choices", "serve_mix requests"} {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("%s differ between two generations from one seed", name)
		}
		if reflect.DeepEqual(a[i], c[i]) {
			t.Errorf("%s are the same for two seeds", name)
		}
	}
}

// TestMixProportions pins the traffic mix of serve_mix.
func TestMixProportions(t *testing.T) {
	g := newMixGen(3, 0)
	var n [numKinds]int
	const total = 200000
	for i := 0; i < total; i++ {
		for _, q := range g.next() {
			n[q.kind]++
		}
	}
	share := func(k reqKind) float64 { return float64(n[k]) / total }
	for _, c := range []struct {
		kind     reqKind
		lo, hi   float64
		whatItIs string
	}{
		{kindSum, 0.79, 0.81, "waited sum submissions"},
		{kindFill, 0.09, 0.11, "fill submissions"},
		{kindAlloc, 0.04, 0.06, "buffer allocations"},
		{kindFree, 0.04, 0.06, "buffer frees"},
		{kindTenantCreate, 0.0005, 0.002, "tenant creations"},
		{kindTenantGet, 0.0005, 0.002, "tenant reads"},
	} {
		if s := share(c.kind); s < c.lo || s > c.hi {
			t.Errorf("%s are %.4f of the mix, want %.4f to %.4f", c.whatItIs, s, c.lo, c.hi)
		}
	}
	if n[kindTenantCreate] != n[kindTenantDelete] {
		t.Errorf("%d tenant creations, %d deletions", n[kindTenantCreate], n[kindTenantDelete])
	}
	if len(g.live) > mixMaxLive {
		t.Errorf("%d buffers live, bound is %d", len(g.live), mixMaxLive)
	}
}

// TestSelfTime checks the span arithmetic: a span's self time is its
// duration minus what its children cover, overlaps counted once.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "enqueue", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "sync", Start: 40, End: 90},  // overlaps enqueue by 10
		{ID: 4, Parent: 2, Name: "call", Start: 20, End: 30},  // grandchild: not the round's
		{ID: 5, Parent: 1, Name: "late", Start: 95, End: 120}, // sticks out of the parent
	}
	want := map[string]time.Duration{"round": 100 - 40 - 40 - 5, "enqueue": 30, "sync": 50, "call": 10, "late": 25}
	for _, st := range selfTimes(spans) {
		if st.Self != want[st.Name] {
			t.Errorf("self time of %s is %d, want %d", st.Name, st.Self, want[st.Name])
		}
	}
}

// TestCompare checks -compare: within the bounds passes, a metric
// worse by more than its bound or a failed operation does not.
func TestCompare(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricDef{
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
		{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.1},
	}}
	set := func(ops, lat float64, failed int64) string {
		rs := resultSet{Seed: 1, Workloads: map[string]*result{"w": {
			Correct: failed == 0, Attempted: 10, Failed: failed,
			Metrics: map[string]metricValue{"ops_per_s": {ops, "1/s"}, "latency_p50_us": {lat, "us"}},
		}}}
		path := filepath.Join(t.TempDir(), "set.json")
		if err := writeJSON(path, rs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := set(1000, 100, 0)
	for _, c := range []struct {
		name   string
		other  string
		beyond bool
	}{
		{"within bounds", set(950, 105, 0), false},
		{"better on both", set(2000, 50, 0), false},
		{"throughput down 20%", set(800, 100, 0), true},
		{"latency up 20%", set(1000, 120, 0), true},
		{"a failed operation", set(1000, 100, 1), true},
	} {
		err := compareFiles(spec, base, c.other, &bytes.Buffer{})
		if got := errors.Is(err, errBeyondBound); got != c.beyond {
			t.Errorf("%s: beyond bound = %v (%v), want %v", c.name, got, err, c.beyond)
		}
	}
}
