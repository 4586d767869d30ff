package telemetry

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"
	"time"

	"hstreams/internal/metrics"
	"hstreams/internal/trace"
)

// maxRates bounds the rate table in a Timeline so the text rendering
// stays readable; Timeline.RatesTruncated reports how many nonzero
// series were dropped (never silently).
const maxRates = 24

// RateView is the windowed rate of one counter series.
type RateView struct {
	Name      string            `json:"name"`
	Labels    map[string]string `json:"labels,omitempty"`
	PerSecond float64           `json:"per_second"`
	Delta     float64           `json:"delta"`
}

// LatencyView is a windowed latency summary for one histogram series:
// quantiles interpolated from bucket-count deltas between the window's
// endpoints, plus the freshest exemplar so an operator can jump from a
// percentile to the flight-recorder span behind it.
type LatencyView struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	// Count is how many observations landed inside the window.
	Count int64 `json:"count"`
	// P50, P95 and P99 are interpolated quantiles in seconds.
	P50 float64 `json:"p50_seconds"`
	P95 float64 `json:"p95_seconds"`
	P99 float64 `json:"p99_seconds"`
	// Exemplar, when non-nil, is the last observation recorded in the
	// highest-populated bucket of the window — the span to chase when
	// the tail moves.
	Exemplar *metrics.Exemplar `json:"exemplar,omitempty"`
}

// UtilView attributes one domain's window: busy seconds (summed action
// execution time) against stream-capacity seconds, split by the
// critical-path category names (trace.CatCompute and friends) so the
// live view reconciles against `hsbench -critpath`.
//
// In Sim mode busy time is virtual-clock seconds while the window span
// is wall time, so Utilization is only comparable across domains, not
// against 1.0; in Real mode both are wall time.
type UtilView struct {
	Domain string `json:"domain"`
	// Streams is the number of streams attached to the domain.
	Streams int `json:"streams"`
	// BusySeconds is execution time accumulated inside the window.
	BusySeconds float64 `json:"busy_seconds"`
	// CapacitySeconds is window span × streams.
	CapacitySeconds float64 `json:"capacity_seconds"`
	// Utilization is BusySeconds / CapacitySeconds (0 when no capacity).
	Utilization float64 `json:"utilization"`
	// Categories splits BusySeconds by critical-path category name.
	Categories map[string]float64 `json:"categories"`
}

// QueueView is one stream's queue-depth summary: the current depth,
// the high-water mark within the window, and the all-time peak gauge.
type QueueView struct {
	Stream    string  `json:"stream"`
	Depth     float64 `json:"depth"`
	WindowMax float64 `json:"window_max"`
	Peak      float64 `json:"peak"`
}

// LinkView is one fabric link direction's window: achieved bandwidth,
// transfer count, and occupancy (busy-seconds per wall-second — the
// fraction of the window the link spent moving bytes, >1 when
// transfers overlap in Sim accounting).
type LinkView struct {
	Src            string  `json:"src"`
	Dst            string  `json:"dst"`
	BytesPerSecond float64 `json:"bytes_per_second"`
	Transfers      float64 `json:"transfers"`
	Occupancy      float64 `json:"occupancy"`
}

// Timeline is the derived, bounded view of a Store's window: what the
// /debug/timeline endpoint serves and `hsbench -timeline` prints. All
// durations are nanosecond integers so the JSON is lossless.
type Timeline struct {
	// GeneratedAt is the newest sample time in the store (the
	// timeline's "now" — deterministic for synthetically-timed tests).
	GeneratedAt time.Time `json:"generated_at"`
	// WindowNanos is the requested window length.
	WindowNanos int64 `json:"window_nanos"`
	// StepNanos is the display decimation step (0 when the timeline is
	// full-resolution). Windowed deltas, rates and quantiles are always
	// computed from the full-resolution points; the step only thins
	// what Samples counts and what per-point scans (queue window-max)
	// see.
	StepNanos int64 `json:"step_nanos,omitempty"`
	// SpanNanos is the observed span: newest minus oldest retained
	// sample inside the window (≤ WindowNanos).
	SpanNanos int64 `json:"span_nanos"`
	// Samples is the most points any one series retains in the window.
	Samples int `json:"samples"`
	// Rates lists windowed counter rates, largest first.
	Rates []RateView `json:"rates"`
	// RatesTruncated counts nonzero rate series dropped past maxRates.
	RatesTruncated int `json:"rates_truncated,omitempty"`
	// Latencies lists windowed histogram quantiles with exemplars.
	Latencies []LatencyView `json:"latencies"`
	// Utilization lists per-domain busy/idle attribution.
	Utilization []UtilView `json:"utilization"`
	// Queues lists per-stream depth watermarks.
	Queues []QueueView `json:"queues"`
	// Links lists per-link bandwidth and occupancy.
	Links []LinkView `json:"links"`
}

// Build derives a Timeline from the store's retained window. A
// non-positive window means the store's full window. reg, when
// non-nil, supplies histogram exemplars (the store holds only bucket
// counts); pass the registry the sampler snapshots.
func Build(st *Store, reg *metrics.Registry, window time.Duration) *Timeline {
	return BuildStep(st, reg, window, 0)
}

// BuildStep is Build with display decimation: a positive step thins
// each series to at most one point per step before per-point scans
// (the newest point always survives, so last-value reads are exact),
// which keeps coarse views of a dense ring cheap to render. Windowed
// deltas, rates and quantiles always run on the full-resolution
// points — decimating first would corrupt the baseline. A
// non-positive step means no decimation. The whole view is read under
// one store lock, so every section describes the same tick.
func BuildStep(st *Store, reg *metrics.Registry, window, step time.Duration) *Timeline {
	if window <= 0 {
		window = st.Window()
	}
	if step < 0 {
		step = 0
	}
	tl := &Timeline{WindowNanos: int64(window), StepNanos: int64(step)}
	var hists []metrics.HistSample
	if reg != nil {
		hists = reg.SnapshotHistograms()
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	if !st.hasNewest {
		return tl
	}
	now := st.newest
	tl.GeneratedAt = now
	cutoff := now.Add(-window)

	// Every ring with samples in the window, by name then key.
	var views []win
	oldest := now
	for _, name := range sortedKeys(st.byName) {
		for _, r := range st.byName[name] {
			w := r.window(cutoff)
			if w.empty() {
				continue
			}
			if t := r.at(w.first); t.Before(oldest) {
				oldest = t
			}
			n := 0
			w.thin(step, func(int) { n++ })
			tl.Samples = max(tl.Samples, n)
			views = append(views, w)
		}
	}
	span := now.Sub(oldest)
	tl.SpanNanos = int64(span)
	spanSec := span.Seconds()

	// get windows the scalar series (name, labels); the result is
	// empty when it has no samples in the window.
	get := func(name string, labels map[string]string) win {
		if r := st.rings[key(name, labels)]; r != nil && r.bounds == nil {
			return r.window(cutoff)
		}
		return win{}
	}

	// Windowed counter rates, and windowed quantiles from bucket-count
	// deltas.
	for _, w := range views {
		r := w.r
		if r.bounds != nil {
			deltas := w.deltas(nil)
			total := deltas[len(deltas)-1] // cumulative → the +Inf bucket
			if total <= 0 {
				continue
			}
			tl.Latencies = append(tl.Latencies, LatencyView{
				Name: r.name, Labels: r.labels, Count: int64(total + 0.5),
				P50:      bucketQuantile(0.50, r.bounds, deltas),
				P95:      bucketQuantile(0.95, r.bounds, deltas),
				P99:      bucketQuantile(0.99, r.bounds, deltas),
				Exemplar: pickExemplar(hists, r.name, r.labels, deltas),
			})
			continue
		}
		if !strings.HasSuffix(r.name, "_total") {
			continue
		}
		d, sp := w.delta(0), w.span()
		if sp <= 0 {
			sp = span
		}
		if d <= 0 || sp <= 0 {
			continue
		}
		tl.Rates = append(tl.Rates, RateView{
			Name: r.name, Labels: r.labels,
			PerSecond: d / sp.Seconds(), Delta: d,
		})
	}
	sort.Slice(tl.Rates, func(i, j int) bool {
		a, b := tl.Rates[i], tl.Rates[j]
		if a.PerSecond != b.PerSecond {
			return a.PerSecond > b.PerSecond
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return labelSig(a.Labels) < labelSig(b.Labels)
	})
	if len(tl.Rates) > maxRates {
		tl.RatesTruncated = len(tl.Rates) - maxRates
		tl.Rates = tl.Rates[:maxRates]
	}

	// Per-domain utilization attribution.
	st.eachLocked("hstreams_domain_streams", nil, cutoff, false, func(r *ring, w win) {
		domain := r.labels["domain"]
		streams := w.last(0)
		uv := UtilView{
			Domain: domain, Streams: int(streams + 0.5),
			CapacitySeconds: spanSec * streams,
			Categories:      map[string]float64{},
		}
		for _, c := range [...]struct{ kind, cat string }{
			{"compute", trace.CatCompute},
			{"transfer", trace.CatTransfer},
			{"sync", trace.CatSync},
		} {
			if d := get("hstreams_action_duration_seconds_sum", map[string]string{"kind": c.kind, "domain": domain}).delta(0); d > 0 {
				uv.Categories[c.cat] = d
				uv.BusySeconds += d
			}
		}
		if uv.CapacitySeconds > 0 {
			uv.Utilization = uv.BusySeconds / uv.CapacitySeconds
		}
		tl.Utilization = append(tl.Utilization, uv)
	})
	sort.Slice(tl.Utilization, func(i, j int) bool { return tl.Utilization[i].Domain < tl.Utilization[j].Domain })

	// Per-stream queue-depth watermarks.
	st.eachLocked("hstreams_queue_depth", nil, cutoff, false, func(r *ring, w win) {
		stream := r.labels["stream"]
		qv := QueueView{Stream: stream, Depth: w.last(0)}
		w.thin(step, func(i int) { qv.WindowMax = max(qv.WindowMax, r.val(i, 0)) })
		if pk := get("hstreams_queue_depth_peak", map[string]string{"stream": stream}); !pk.empty() {
			qv.Peak = pk.last(0)
		}
		tl.Queues = append(tl.Queues, qv)
	})
	sort.Slice(tl.Queues, func(i, j int) bool { return tl.Queues[i].Stream < tl.Queues[j].Stream })

	// Per-link bandwidth and occupancy.
	st.eachLocked("hstreams_link_bytes_total", nil, cutoff, false, func(r *ring, w win) {
		bd := w.delta(0)
		if bd <= 0 || spanSec <= 0 {
			return
		}
		lv := LinkView{Src: r.labels["src"], Dst: r.labels["dst"], BytesPerSecond: bd / spanSec}
		lv.Transfers = get("hstreams_link_transfers_total", r.labels).delta(0)
		if od := get("hstreams_link_occupancy_seconds_sum", r.labels).delta(0); od > 0 {
			lv.Occupancy = od / spanSec
		}
		tl.Links = append(tl.Links, lv)
	})
	sort.Slice(tl.Links, func(i, j int) bool {
		a, b := tl.Links[i], tl.Links[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})

	return tl
}

// labelSig renders labels as a sorted, comparable signature.
func labelSig(labels map[string]string) string {
	parts := make([]string, 0, len(labels))
	for _, k := range sortedKeys(labels) {
		parts = append(parts, k+"="+labels[k])
	}
	return strings.Join(parts, ",")
}

// bucketQuantile interpolates the q-quantile from cumulative bucket
// deltas the way PromQL's histogram_quantile does: linear within the
// bucket holding the rank, clamped to the highest finite bound when
// the rank lands in the +Inf bucket.
func bucketQuantile(q float64, bounds, cum []float64) float64 {
	total := cum[len(cum)-1]
	if total <= 0 {
		return 0
	}
	rank := q * total
	i := sort.Search(len(cum), func(i int) bool { return cum[i] >= rank })
	if i >= len(cum) {
		i = len(cum) - 1
	}
	if math.IsInf(bounds[i], 1) {
		if len(bounds) > 1 {
			return bounds[len(bounds)-2]
		}
		return 0
	}
	lo, clo := 0.0, 0.0
	if i > 0 {
		lo, clo = bounds[i-1], cum[i-1]
	}
	if cum[i] == clo {
		return bounds[i]
	}
	return lo + (bounds[i]-lo)*(rank-clo)/(cum[i]-clo)
}

// pickExemplar returns the registry exemplar from the highest window-
// populated bucket of the matching histogram, or nil. Exemplars are
// last-writer-wins per bucket, so the returned span is the freshest
// observation in the tail bucket — exactly the one to chase after a
// percentile spike.
func pickExemplar(hists []metrics.HistSample, name string, labels map[string]string, deltas []float64) *metrics.Exemplar {
	for _, h := range hists {
		if h.Name != name || !maps.Equal(h.Labels, labels) {
			continue
		}
		// Window deltas and registry buckets share index order: both
		// ascend by bound with +Inf last.
		for i := len(deltas) - 1; i >= 0; i-- {
			if deltas[i] > 0 && i < len(h.Exemplars) && h.Exemplars[i].SpanID != 0 {
				e := h.Exemplars[i]
				return &e
			}
		}
		return nil
	}
	return nil
}

// Format renders the timeline as the text form served by
// /debug/timeline?format=text and printed by `hsbench -timeline`.
func (tl *Timeline) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "timeline: window %s, span %s, %d samples",
		time.Duration(tl.WindowNanos), time.Duration(tl.SpanNanos), tl.Samples)
	if tl.StepNanos > 0 {
		fmt.Fprintf(&sb, ", step %s", time.Duration(tl.StepNanos))
	}
	sb.WriteByte('\n')
	if tl.Samples == 0 {
		sb.WriteString("  (no samples retained — is the sampler running?)\n")
		return sb.String()
	}
	if len(tl.Rates) > 0 {
		sb.WriteString("rates:\n")
		for _, r := range tl.Rates {
			fmt.Fprintf(&sb, "  %-56s %12.1f/s  (+%.0f)\n", seriesLabel(r.Name, r.Labels), r.PerSecond, r.Delta)
		}
		if tl.RatesTruncated > 0 {
			fmt.Fprintf(&sb, "  … %d more nonzero series truncated\n", tl.RatesTruncated)
		}
	}
	if len(tl.Latencies) > 0 {
		sb.WriteString("latency (windowed):\n")
		for _, l := range tl.Latencies {
			fmt.Fprintf(&sb, "  %-56s n=%-6d p50=%s p95=%s p99=%s",
				seriesLabel(l.Name, l.Labels), l.Count,
				fmtSec(l.P50), fmtSec(l.P95), fmtSec(l.P99))
			if l.Exemplar != nil {
				fmt.Fprintf(&sb, "  exemplar span=%d %s", l.Exemplar.SpanID, fmtSec(l.Exemplar.Value))
			}
			sb.WriteByte('\n')
		}
	}
	if len(tl.Utilization) > 0 {
		sb.WriteString("utilization:\n")
		for _, u := range tl.Utilization {
			fmt.Fprintf(&sb, "  %-10s busy %s / %s (%.1f%%)",
				u.Domain, fmtSec(u.BusySeconds), fmtSec(u.CapacitySeconds), 100*u.Utilization)
			for _, cat := range []string{trace.CatCompute, trace.CatTransfer, trace.CatSync} {
				if v, okC := u.Categories[cat]; okC {
					fmt.Fprintf(&sb, "  %s=%s", cat, fmtSec(v))
				}
			}
			sb.WriteByte('\n')
		}
	}
	if len(tl.Queues) > 0 {
		sb.WriteString("queues:\n")
		for _, q := range tl.Queues {
			fmt.Fprintf(&sb, "  %-12s depth %-5.0f window-max %-5.0f peak %.0f\n", q.Stream, q.Depth, q.WindowMax, q.Peak)
		}
	}
	if len(tl.Links) > 0 {
		sb.WriteString("links:\n")
		for _, l := range tl.Links {
			fmt.Fprintf(&sb, "  %s→%-10s %s/s  occupancy %.1f%%  (%.0f xfers)\n",
				l.Src, l.Dst, fmtBytes(l.BytesPerSecond), 100*l.Occupancy, l.Transfers)
		}
	}
	return sb.String()
}

// seriesLabel renders name{k=v,…} for the text form.
func seriesLabel(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	return name + "{" + labelSig(labels) + "}"
}

// fmtSec renders seconds with duration-style units.
func fmtSec(s float64) string {
	d := time.Duration(s * float64(time.Second))
	return d.Round(time.Microsecond).String()
}

// fmtBytes renders a byte quantity with binary-ish SI units.
func fmtBytes(b float64) string {
	switch {
	case b >= 1e9:
		return fmt.Sprintf("%.2f GB", b/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.2f MB", b/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.2f kB", b/1e3)
	default:
		return fmt.Sprintf("%.0f B", b)
	}
}
