package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"hstreams/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestTimelineGolden pins every windowed reader of the store — the
// BuildStep view (JSON and text) and the four queries — over seeded
// synthetic registries sampled at synthetic times. The runs cover
// counters, gauges and labeled histograms with exemplars, a counter
// born late, rings that wrap inside the window (4 and 16 slots) and a
// ring that holds the whole run while the window clips it (64), so
// each of the three delta-baseline rules is hit.
// A diff means a reader's output changed; regenerate with
//
//	go test ./internal/telemetry -run TestTimelineGolden -update
//
// only when that change is intended.
func TestTimelineGolden(t *testing.T) {
	var out bytes.Buffer
	for seed := int64(1); seed <= 3; seed++ {
		for _, slots := range []int{4, 16, 64} {
			goldenRun(&out, seed, slots)
		}
	}
	path := filepath.Join("testdata", "timeline.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, wantL := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(wantL); i++ {
			if !bytes.Equal(got[i], wantL[i]) {
				t.Fatalf("golden line %d differs:\n got: %s\nwant: %s", i+1, got[i], wantL[i])
			}
		}
		t.Fatalf("golden length differs: got %d lines, want %d", len(got), len(wantL))
	}
}

// dyadic is 1/512 s. Action durations are whole multiples of it, so
// every busy-seconds sum is exact whatever order its terms are added
// in.
const dyadic = time.Second / 512

// goldenRun samples one seeded registry for 40 ticks of 2.5 s into a
// one-minute store of the given ring size, then writes every reader's
// output, one line each.
func goldenRun(out *bytes.Buffer, seed int64, slots int) {
	rng := rand.New(rand.NewSource(seed))
	reg := metrics.New()
	st := NewStore(time.Minute, slots)
	sam := NewSampler(SamplerOptions{Registry: reg, Store: st, Interval: time.Hour})

	actions := reg.Counter("hstreams_actions_total", "actions")
	work := reg.CounterVec("work_total", "work", "kind")
	linkBytes := reg.CounterVec("hstreams_link_bytes_total", "bytes", "src", "dst")
	linkXfers := reg.CounterVec("hstreams_link_transfers_total", "transfers", "src", "dst")
	occ := reg.HistogramVec("hstreams_link_occupancy_seconds", "occupancy", []float64{1e-3, 1e-2}, "src", "dst")
	dur := reg.HistogramVec("hstreams_action_duration_seconds", "duration", []float64{0.01, 0.05, 0.1, 0.15}, "kind", "domain")
	lat := reg.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	depth := reg.GaugeVec("hstreams_queue_depth", "depth", "stream")
	peak := reg.GaugeVec("hstreams_queue_depth_peak", "peak", "stream")
	streams := reg.GaugeVec("hstreams_domain_streams", "streams", "domain")

	domains := []string{"HSW", "KNC0"}
	kinds := []string{"compute", "transfer", "sync"}
	links := [][2]string{{"HSW", "KNC0"}, {"KNC0", "HSW"}}
	var span uint64
	for tick := 0; tick < 40; tick++ {
		now := base.Add(time.Duration(tick) * 2500 * time.Millisecond)
		clock := int64(tick) * int64(2500*time.Millisecond)
		actions.Add(int64(rng.Intn(50)))
		for _, k := range kinds {
			if rng.Intn(3) > 0 {
				work.With(k).Add(int64(rng.Intn(20)))
			}
		}
		if tick >= 25 { // born late: absent from the first 25 snapshots
			reg.Counter("late_total", "late").Add(int64(1 + rng.Intn(9)))
		}
		for _, l := range links {
			if rng.Intn(4) == 0 {
				continue // idle this tick: flat counters
			}
			n := 1 + rng.Intn(4)
			linkXfers.With(l[0], l[1]).Add(int64(n))
			linkBytes.With(l[0], l[1]).Add(int64(n * (1 << 14) * (1 + rng.Intn(8))))
			for i := 0; i < n; i++ {
				span++
				occ.With(l[0], l[1]).ObserveEx(time.Duration(rng.Int63n(int64(20*time.Millisecond))), span, clock+int64(i))
			}
		}
		for _, d := range domains {
			streams.With(d).Set(int64(2 + len(d)))
			for _, k := range kinds {
				for i := rng.Intn(4); i > 0; i-- {
					span++
					dur.With(k, d).ObserveEx(time.Duration(rng.Int63n(100))*dyadic, span, clock+int64(i))
				}
			}
			for s := 0; s < 2; s++ {
				name := fmt.Sprintf("%s.s%d", d, s)
				v := int64(rng.Intn(12))
				depth.With(name).Set(v)
				peak.With(name).SetMax(v)
			}
		}
		if tick%3 != 1 { // some ticks observe nothing
			for i := rng.Intn(6); i > 0; i-- {
				span++
				lat.ObserveEx(time.Duration(rng.ExpFloat64()*float64(50*time.Millisecond)), span, clock+int64(i)*int64(time.Second))
			}
		}
		sam.SampleOnce(now)
	}

	fmt.Fprintf(out, "# seed %d slots %d\n", seed, slots)
	line := func(tag string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(out, "%s %s\n", tag, b)
	}
	windows := []time.Duration{0, 5 * time.Second, 20 * time.Second, 45 * time.Second}
	for _, w := range windows {
		for _, step := range []time.Duration{0, 10 * time.Second} {
			tl := BuildStep(st, reg, w, step)
			line(fmt.Sprintf("build w=%s step=%s", w, step), tl)
			if step == 0 {
				fmt.Fprintf(out, "text w=%s %q\n", w, tl.Format())
			}
		}
	}

	// Query every family the registry holds, under no selector and
	// under its first series' first label. The sampler's own series
	// gauge is left out: its value is the store's ring count, which
	// measures the store's layout, not what a window read returns.
	scalars, hists := goldenFamilies(reg)
	for _, w := range windows[:2] {
		for _, f := range scalars {
			for _, m := range f.matches() {
				line(fmt.Sprintf("latest %s %v w=%s", f.name, m, w), st.LatestOver(f.name, m, w))
				line(fmt.Sprintf("delta %s %v w=%s", f.name, m, w), st.DeltaOver(f.name, m, w))
				line(fmt.Sprintf("rate %s %v w=%s", f.name, m, w), st.RateOver(f.name, m, w))
			}
		}
		for _, f := range hists {
			for _, m := range f.matches() {
				for _, q := range []float64{0.5, 0.99} {
					line(fmt.Sprintf("quantile %s %v q=%v w=%s", f.name, m, q, w), st.QuantileOver(f.name, m, q, w))
				}
			}
		}
	}
}

// goldenFamily is one family to query and a selector on its first
// series' first label (nil for unlabeled families).
type goldenFamily struct {
	name  string
	match map[string]string
}

// matches lists the selectors to query the family under.
func (f goldenFamily) matches() []map[string]string {
	if f.match == nil {
		return []map[string]string{nil}
	}
	return []map[string]string{nil, f.match}
}

// goldenFamilies lists the registry's scalar families (histograms as
// their _count and _sum) and its histogram families, sorted by name.
func goldenFamilies(reg *metrics.Registry) (scalars, hists []goldenFamily) {
	first := func(labels map[string]string) map[string]string {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			keys = append(keys, k)
		}
		if len(keys) == 0 {
			return nil
		}
		sort.Strings(keys)
		return map[string]string{keys[0]: labels[keys[0]]}
	}
	seen := map[string]bool{}
	for _, s := range reg.Snapshot() {
		if seen[s.Name] || s.Name == "hstreams_telemetry_series" {
			continue
		}
		seen[s.Name] = true
		scalars = append(scalars, goldenFamily{s.Name, first(s.Labels)})
	}
	for _, h := range reg.SnapshotHistograms() {
		if !seen[h.Name] {
			seen[h.Name] = true
			hists = append(hists, goldenFamily{h.Name, first(h.Labels)})
		}
	}
	return scalars, hists
}
