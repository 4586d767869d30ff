// Package metrics is the runtime's live telemetry layer: a
// dependency-free, concurrency-safe registry of counters, gauges and
// fixed-bucket histograms, exposed in Prometheus text format and JSON
// (expose.go). Per-action lifecycle records are internal/trace spans;
// a caller that must act as each action retires uses
// core.Stream.SetRetireHook.
//
// Unlike internal/trace — a post-hoc recorder that keeps one record
// per action and is read after a run — this package maintains cheap
// aggregates (atomic adds on the hot path) that can be sampled while
// the runtime is working, which is what stream-count tuning and
// overlap analysis need at production scale.
//
// All update paths are lock-free atomics; registration paths take a
// registry mutex but are get-or-create, so handles may be resolved
// eagerly and cached by instrumented code. Every constructor is safe
// on a nil *Registry: it hands back a detached, fully functional
// metric that is simply not exported, so instrumented layers never
// need nil checks.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Type classifies a metric family.
type Type int

const (
	// CounterType is a monotonically increasing count.
	CounterType Type = iota
	// GaugeType is a value that can go up and down.
	GaugeType
	// HistogramType is a fixed-bucket distribution of seconds.
	HistogramType
)

// String labels the metric type for the exposition format.
func (t Type) String() string {
	switch t {
	case CounterType:
		return "counter"
	case GaugeType:
		return "gauge"
	case HistogramType:
		return "histogram"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// DefBuckets are the default histogram upper bounds in seconds,
// spanning the microsecond enqueue overheads (§III) up to the
// multi-second makespans of paper-scale runs.
var DefBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100}

// Counter is a monotonically increasing integer counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (counters are monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous integer value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// SetMax raises the gauge to v if v is larger — a high-water mark.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution of durations, recorded in
// seconds. Buckets are cumulative on export (Prometheus semantics);
// internally each slot counts observations ≤ its bound, with a final
// implicit +Inf slot. Each bucket additionally keeps one exemplar
// slot: the most recent observation that landed in it, stamped with
// the observer-supplied span id (see ObserveEx), which is how latency
// buckets link back to flight-recorder spans.
type Histogram struct {
	bounds   []float64 // sorted upper bounds in seconds
	counts   []atomic.Int64
	ex       []exSlot // one per counts slot
	count    atomic.Int64
	sumNanos atomic.Int64
	// exGate is the per-histogram exemplar throttle: the observer
	// clock of the last exemplar refresh. It sits next to count and
	// sumNanos, which every observation already touches, so the
	// steady-state ObserveEx check is a load of an already-hot cache
	// line rather than of the cold ex slots.
	exGate atomic.Uint64
}

// exSlot is one bucket's exemplar: the span id, observed value
// (float64 bits) and runtime-clock nanos of the most recent
// observation that refreshed it. The three words are written with
// independent atomic stores — a reader racing a writer can see a
// mixed exemplar (span from one observation, value from another).
// That tearing is accepted by design: exemplars are diagnostic
// pointers, not accounting.
//
// Refreshes are throttled per histogram (exGate): an exemplar is
// accepted at most once per exemplarMinAge of the observer's clock,
// plus whenever the clock jumps backwards — a new run reusing the
// registry. Atomic stores are full barriers on the common
// architectures, and the ex slots live on cache lines the hot path
// otherwise never touches, so refreshing on every observation
// measurably slowed the action path; the gate turns the steady-state
// cost into one load of a line Observe already dirties. Operators
// cannot tell: timeline windows are seconds-to-minutes, and a
// refresh per second per histogram keeps the populated buckets'
// exemplars current.
type exSlot struct {
	span atomic.Uint64
	bits atomic.Uint64
	when atomic.Uint64
}

// exemplarMinAge is the minimum observer-clock advance between
// exemplar refreshes of one histogram.
const exemplarMinAge = uint64(time.Second)

// Exemplar links one histogram bucket to the most recent observation
// recorded into it: the flight-recorder span id that produced the
// observation, the observed value in seconds, and the runtime-clock
// nanos of the observation. A zero SpanID means the bucket has no
// exemplar yet. Exemplars are best-effort (see exSlot).
type Exemplar struct {
	SpanID uint64  `json:"span"`
	Value  float64 `json:"value_seconds"`
	When   int64   `json:"when_nanos"`
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1), ex: make([]exSlot, len(b)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, s)
	// SearchFloat64s finds the first bound >= s; observations equal to
	// a bound belong to that bound's bucket (le is inclusive).
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
}

// ObserveEx is Observe plus exemplar capture: the matching bucket's
// exemplar slot is refreshed with (span, d, when), where span is a
// flight-recorder span id and when is the runtime clock at the
// observation. Refreshes are rate-limited per histogram (see
// exSlot), so in steady state the extra cost over Observe is one
// uncontended atomic load of an already-hot cache line — no
// allocation, no lock.
func (h *Histogram) ObserveEx(d time.Duration, span uint64, when int64) {
	if d < 0 {
		d = 0
	}
	s := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, s)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
	w := uint64(when)
	if g := h.exGate.Load(); g == 0 || w < g || w-g >= exemplarMinAge {
		h.exGate.Store(w)
		e := &h.ex[i]
		e.span.Store(span)
		e.bits.Store(math.Float64bits(s))
		e.when.Store(w)
	}
}

// Exemplars returns one Exemplar per bucket slot (the last entry is
// the +Inf bucket), zero-SpanID entries marking buckets nothing has
// landed in. Safe to call concurrently with observations.
func (h *Histogram) Exemplars() []Exemplar {
	out := make([]Exemplar, len(h.ex))
	for i := range h.ex {
		out[i] = Exemplar{
			SpanID: h.ex[i].span.Load(),
			Value:  math.Float64frombits(h.ex[i].bits.Load()),
			When:   int64(h.ex[i].when.Load()),
		}
	}
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total observed time.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNanos.Load()) }

// Buckets returns the upper bounds and cumulative counts (the last
// entry is the +Inf bucket, equal to Count up to concurrent skew).
func (h *Histogram) Buckets() (bounds []float64, cumulative []int64) {
	bounds = h.bounds
	cumulative = make([]int64, len(h.counts))
	var run int64
	for i := range h.counts {
		run += h.counts[i].Load()
		cumulative[i] = run
	}
	return bounds, cumulative
}

// series is one labeled instance of a family.
type series struct {
	values []string
	metric interface{} // *Counter, *Gauge or *Histogram
}

// family is a named metric with a fixed label-key set.
type family struct {
	name   string
	help   string
	typ    Type
	keys   []string
	bounds []float64 // histograms only

	mu     sync.Mutex
	series map[string]*series
}

func (f *family) get(values []string) *series {
	if len(values) != len(f.keys) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.keys), len(values)))
	}
	sig := strings.Join(values, "\x1f")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[sig]; ok {
		return s
	}
	s := &series{values: append([]string(nil), values...)}
	switch f.typ {
	case CounterType:
		s.metric = &Counter{}
	case GaugeType:
		s.metric = &Gauge{}
	case HistogramType:
		s.metric = newHistogram(f.bounds)
	}
	f.series[sig] = s
	return s
}

// delete removes the series with the given label values, if any.
func (f *family) delete(values []string) {
	f.mu.Lock()
	delete(f.series, strings.Join(values, "\x1f"))
	f.mu.Unlock()
}

// Registry holds metric families. The zero value is not usable;
// create one with New, or use the process-wide Default registry. All
// methods are safe on a nil receiver and return detached metrics.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// New returns an empty registry.
func New() *Registry { return &Registry{fams: make(map[string]*family)} }

var defaultRegistry = New()

// Default returns the process-wide registry, used by runtimes whose
// Config does not supply one so that harnesses driving many runtimes
// (cmd/hsbench regenerating every figure) accumulate a single view.
func Default() *Registry { return defaultRegistry }

// family registers or finds a family. Type and label keys must match
// a previous registration of the same name.
func (r *Registry) family(name, help string, typ Type, keys []string, bounds []float64) *family {
	if r == nil {
		return &family{name: name, help: help, typ: typ, keys: keys, bounds: bounds, series: make(map[string]*series)}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || len(f.keys) != len(keys) {
			panic(fmt.Sprintf("metrics: %s re-registered with different type or labels", name))
		}
		for i := range keys {
			if f.keys[i] != keys[i] {
				panic(fmt.Sprintf("metrics: %s re-registered with different labels", name))
			}
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, keys: append([]string(nil), keys...), bounds: bounds, series: make(map[string]*series)}
	r.fams[name] = f
	return f
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, CounterType, nil, nil).get(nil).metric.(*Counter)
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, GaugeType, nil, nil).get(nil).metric.(*Gauge)
}

// Histogram registers (or finds) an unlabeled histogram. Nil bounds
// use DefBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.family(name, help, HistogramType, nil, bounds).get(nil).metric.(*Histogram)
}

// CounterVec is a counter family with label keys.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, keys ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, CounterType, keys, nil)}
}

// With resolves the series for the given label values (key order).
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(values).metric.(*Counter)
}

// Delete removes the series for the given label values (key order)
// from snapshots and expositions. Handles already resolved keep
// working, unexported; a later With starts a fresh series.
func (v *CounterVec) Delete(values ...string) { v.f.delete(values) }

// GaugeVec is a gauge family with label keys.
type GaugeVec struct{ f *family }

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, keys ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, GaugeType, keys, nil)}
}

// With resolves the series for the given label values (key order).
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(values).metric.(*Gauge)
}

// Delete removes the series for the given label values (key order)
// from snapshots and expositions. Handles already resolved keep
// working, unexported; a later With starts a fresh series.
func (v *GaugeVec) Delete(values ...string) { v.f.delete(values) }

// HistogramVec is a histogram family with label keys.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a labeled histogram family. Nil
// bounds use DefBuckets.
func (r *Registry) HistogramVec(name, help string, bounds []float64, keys ...string) *HistogramVec {
	return &HistogramVec{f: r.family(name, help, HistogramType, keys, bounds)}
}

// With resolves the series for the given label values (key order).
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(values).metric.(*Histogram)
}

// Delete removes the series for the given label values (key order)
// from snapshots and expositions. Handles already resolved keep
// working, unexported; a later With starts a fresh series.
func (v *HistogramVec) Delete(values ...string) { v.f.delete(values) }

// Sample is one flattened data point of a snapshot. Histograms
// flatten to two samples, "<name>_count" and "<name>_sum" (seconds);
// bucket detail is available through the exposition formats.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// sortedFamilies returns families in name order.
func (r *Registry) sortedFamilies() []*family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedSeries returns a family's series in label-signature order.
func (f *family) sortedSeries() []*series {
	f.mu.Lock()
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i].values, "\x1f") < strings.Join(out[j].values, "\x1f")
	})
	return out
}

func (f *family) labelsOf(s *series) map[string]string {
	if len(f.keys) == 0 {
		return nil
	}
	m := make(map[string]string, len(f.keys))
	for i, k := range f.keys {
		m[k] = s.values[i]
	}
	return m
}

// Snapshot returns a point-in-time flattened view of every series,
// sorted by name then labels.
func (r *Registry) Snapshot() []Sample {
	var out []Sample
	for _, f := range r.sortedFamilies() {
		for _, s := range f.sortedSeries() {
			labels := f.labelsOf(s)
			switch m := s.metric.(type) {
			case *Counter:
				out = append(out, Sample{Name: f.name, Labels: labels, Value: float64(m.Value())})
			case *Gauge:
				out = append(out, Sample{Name: f.name, Labels: labels, Value: float64(m.Value())})
			case *Histogram:
				out = append(out,
					Sample{Name: f.name + "_count", Labels: labels, Value: float64(m.Count())},
					Sample{Name: f.name + "_sum", Labels: labels, Value: m.Sum().Seconds()})
			}
		}
	}
	return out
}

// HistSample is one histogram series with full bucket detail — what
// Snapshot flattens away. The rolling-telemetry sampler
// (internal/telemetry) records the cumulative bucket counts as
// per-bucket time series, from which windowed quantiles are derived.
type HistSample struct {
	Name   string
	Labels map[string]string
	// Bounds are the finite upper bounds in seconds; Cumulative has
	// len(Bounds)+1 entries, the last being the +Inf bucket.
	Bounds     []float64
	Cumulative []int64
	Count      int64
	SumSeconds float64
	// Exemplars holds one entry per Cumulative slot; zero-SpanID
	// entries mark buckets with no exemplar yet.
	Exemplars []Exemplar
}

// SnapshotHistograms returns a point-in-time view of every histogram
// series with bucket detail and exemplars, sorted by name then labels.
func (r *Registry) SnapshotHistograms() []HistSample {
	var out []HistSample
	for _, f := range r.sortedFamilies() {
		if f.typ != HistogramType {
			continue
		}
		for _, s := range f.sortedSeries() {
			h := s.metric.(*Histogram)
			bounds, cum := h.Buckets()
			out = append(out, HistSample{
				Name:       f.name,
				Labels:     f.labelsOf(s),
				Bounds:     bounds,
				Cumulative: cum,
				Count:      h.Count(),
				SumSeconds: h.Sum().Seconds(),
				Exemplars:  h.Exemplars(),
			})
		}
	}
	return out
}

// Sum totals snapshot samples with the given name whose labels
// include every pair in match (nil matches everything). Histogram
// families are addressed as "<name>_count" / "<name>_sum".
func (r *Registry) Sum(name string, match map[string]string) float64 {
	var total float64
	for _, s := range r.Snapshot() {
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			total += s.Value
		}
	}
	return total
}

// Total sums every series of the named (flattened) metric.
func (r *Registry) Total(name string) float64 { return r.Sum(name, nil) }
