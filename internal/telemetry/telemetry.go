// Package telemetry is the continuous-observation layer above
// internal/metrics: where the registry answers "what are the totals
// right now", this package answers "what happened over the last
// minute". A Sampler goroutine periodically snapshots a metrics
// registry — including full histogram bucket detail — into a Store of
// fixed-size rings, one per series, and Build derives the operator
// views from the retained window: windowed rates for counters,
// p50/p95/p99 from bucket-count deltas, per-domain busy/idle
// utilization attribution that reuses the critical-path category
// names, per-link bandwidth occupancy, and per-stream queue-depth
// watermarks. Histogram exemplars (metrics.Exemplar) ride along so a
// latency bucket links to the flight-recorder span that landed in it.
//
// The store is deliberately dumb and bounded: a write overwrites the
// oldest sample once a ring is full, so each series costs a fixed
// slots × (24 + 8·width) bytes however long the process runs — 32 B
// per slot for a counter or gauge, 24 + 8·(buckets+1) B for a
// histogram, whose cumulative bucket counts share one ring. Every
// windowed reader (the queries, Build) goes through one primitive,
// ring.window, in place. Readers (the /debug/timeline endpoint,
// hsbench -timeline, the health rules) never contend with the
// scheduler hot path: the sampler reads the same lock-free atomics
// the exposition formats do.
package telemetry

import (
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"hstreams/internal/metrics"
)

// Default store geometry: a one-minute window at four samples per
// second.
const (
	// DefWindow is the default rolling-window length.
	DefWindow = time.Minute
	// DefSlots is the default ring capacity per series.
	DefSlots = 240
	// DefInterval is the default sampler period (DefWindow/DefSlots).
	DefInterval = DefWindow / DefSlots
)

// Point is one sample of one series: a value observed at a time.
type Point struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
}

// Series is a read-only view of one named, labeled time series with
// its retained points ordered oldest → newest.
type Series struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Points []Point           `json:"points"`
}

// Last returns the newest point, or a zero Point when empty.
func (s *Series) Last() Point {
	if len(s.Points) == 0 {
		return Point{}
	}
	return s.Points[len(s.Points)-1]
}

// ring is the fixed-size buffer behind one series. A scalar ring holds
// one value per sample; a histogram ring holds the cumulative count of
// every bucket per sample, with the bounds kept once (+Inf last).
type ring struct {
	name   string
	key    string // map key: name + sorted label signature
	labels map[string]string
	bounds []float64   // histogram bucket bounds, +Inf last; nil for a scalar
	times  []time.Time // one per slot
	vals   []float64   // width() per slot
	head   int         // next write slot
	n      int         // retained samples, ≤ len(times)
}

// reset empties the ring and shapes it for the given finite bucket
// bounds (nil for a scalar series).
func (r *ring) reset(bounds []float64, slots int) {
	r.bounds = nil
	if bounds != nil {
		r.bounds = append(append(make([]float64, 0, len(bounds)+1), bounds...), math.Inf(1))
	}
	r.times = make([]time.Time, slots)
	r.vals = make([]float64, slots*r.width())
	r.head, r.n = 0, 0
}

// holds reports whether the ring is shaped for the given finite bucket
// bounds (nil for a scalar series).
func (r *ring) holds(bounds []float64) bool {
	if bounds == nil || r.bounds == nil {
		return bounds == nil && r.bounds == nil
	}
	return slices.Equal(r.bounds[:len(r.bounds)-1], bounds)
}

// width is the number of values per sample.
func (r *ring) width() int {
	if r.bounds == nil {
		return 1
	}
	return len(r.bounds)
}

// next claims the slot for a sample taken at t, overwriting the oldest
// once the ring is full, and returns the slot's values to fill.
func (r *ring) next(t time.Time) []float64 {
	s := r.head
	r.times[s] = t
	r.head = (r.head + 1) % len(r.times)
	if r.n < len(r.times) {
		r.n++
	}
	w := r.width()
	return r.vals[s*w : (s+1)*w]
}

// putHist records one histogram snapshot; the +Inf bucket takes the
// histogram's total count.
func (r *ring) putHist(t time.Time, h metrics.HistSample) {
	v := r.next(t)
	for i := range h.Bounds {
		v[i] = float64(h.Cumulative[i])
	}
	v[len(h.Bounds)] = float64(h.Count)
}

// slot maps the i-th retained sample (0 = oldest) to its slot.
func (r *ring) slot(i int) int {
	return (r.head - r.n + i + len(r.times)) % len(r.times)
}

// at returns the time of the i-th retained sample.
func (r *ring) at(i int) time.Time { return r.times[r.slot(i)] }

// val returns value j of the i-th retained sample.
func (r *ring) val(i, j int) float64 { return r.vals[r.slot(i)*r.width()+j] }

// win is one ring's view of a window: the retained samples
// [first, r.n) lie inside it, and base is the sample windowed deltas
// are taken against, or -1 for a zero baseline. The zero win is empty.
type win struct {
	r           *ring
	first, base int
}

// window returns the ring's view of the window that starts at cutoff.
// It is the one windowed read of the store, and its baseline follows
// three rules: the newest sample before the cutoff when one is
// retained (PromQL's increase()); zero when the ring never wrapped and
// all of it lies in the window, since a counter born there started at
// zero (a sampler that attaches after work begins would otherwise
// under-report every first-window delta); else the first in-window
// sample, which under-reports rather than invents when the ring
// overwrote older history. The caller must hold the store lock.
func (r *ring) window(cutoff time.Time) win {
	first := sort.Search(r.n, func(i int) bool { return !r.at(i).Before(cutoff) })
	w := win{r: r, first: first, base: first - 1}
	if first == 0 && r.n == len(r.times) {
		w.base = 0
	}
	return w
}

// empty reports whether no retained sample lies in the window.
func (w win) empty() bool { return w.r == nil || w.first == w.r.n }

// last returns value j of the newest sample.
func (w win) last(j int) float64 { return w.r.val(w.r.n-1, j) }

// delta returns value j's increase across the window, 0 when empty.
func (w win) delta(j int) float64 {
	if w.empty() {
		return 0
	}
	d := w.last(j)
	if w.base >= 0 {
		d -= w.r.val(w.base, j)
	}
	return d
}

// deltas appends every value's windowed increase to dst.
func (w win) deltas(dst []float64) []float64 {
	for j := 0; j < w.r.width(); j++ {
		dst = append(dst, w.delta(j))
	}
	return dst
}

// span is the time the delta covers: the newest sample's time minus
// the baseline's (minus the oldest sample's for a zero baseline). It is
// zero when no in-window time elapsed; rate readers then fall back to
// the window length.
func (w win) span() time.Duration {
	return w.r.at(w.r.n - 1).Sub(w.r.at(max(w.base, 0)))
}

// thin calls fn with the index of each in-window sample a display of
// the given step keeps, newest first: walking back from the newest
// sample (always kept), a sample is kept once it is at least step
// older than the last one kept. A non-positive step keeps every
// sample.
func (w win) thin(step time.Duration, fn func(i int)) {
	kept := w.r.n - 1
	fn(kept)
	for i := kept - 1; i >= w.first; i-- {
		if step <= 0 || w.r.at(kept).Sub(w.r.at(i)) >= step {
			kept = i
			fn(i)
		}
	}
}

// points returns a scalar ring's retained points oldest → newest.
func (r *ring) points() []Point {
	out := make([]Point, r.n)
	for i := range out {
		out[i] = Point{T: r.at(i), V: r.val(i, 0)}
	}
	return out
}

// Store is a rolling time-series store: a fixed-size ring per series,
// keyed by metric name plus label signature. All methods are safe for
// concurrent use; writes never block reads for long (one mutex guards
// the series map and ring cursors, a read or write of one series is
// O(slots), and the sampler's stale-ring sweep is O(series)).
type Store struct {
	mu     sync.RWMutex
	window time.Duration
	slots  int
	rings  map[string]*ring
	// byName indexes the rings by metric name, each family kept
	// sorted by key, so per-family queries (the rule engine runs
	// several per tick) touch only their own series.
	byName map[string][]*ring
	// newest caches the latest sample time across all series (writes
	// only ever append, so the maximum is monotone), making the
	// per-query window resolution O(1).
	newest    time.Time
	hasNewest bool
}

// NewStore returns a store retaining up to slots points per series,
// intended to cover the given window (window/slots is the natural
// sampling resolution). Non-positive arguments use the defaults.
func NewStore(window time.Duration, slots int) *Store {
	if window <= 0 {
		window = DefWindow
	}
	if slots <= 0 {
		slots = DefSlots
	}
	return &Store{window: window, slots: slots, rings: make(map[string]*ring), byName: make(map[string][]*ring)}
}

var defaultStore = NewStore(DefWindow, DefSlots)

// Default returns the process-wide store, the telemetry counterpart of
// metrics.Default(): the one the CLIs sample into and the debug
// server's /debug/timeline reads when not handed a private store.
func Default() *Store { return defaultStore }

// Window returns the window the store is sized for.
func (st *Store) Window() time.Duration { return st.window }

// Resolution returns the natural sampling period (window / slots).
func (st *Store) Resolution() time.Duration { return st.window / time.Duration(st.slots) }

// key builds the series map key: name plus sorted label pairs.
func key(name string, labels map[string]string) string {
	var sb strings.Builder
	sb.WriteString(name)
	for _, k := range sortedKeys(labels) {
		sb.WriteByte('\x1f')
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(labels[k])
	}
	return sb.String()
}

// Put records one point for the (name, labels) series, creating the
// series ring on first sight and overwriting the oldest point once the
// ring is full. The labels map is copied on series creation, so
// callers may reuse it.
func (st *Store) Put(name string, labels map[string]string, t time.Time, v float64) {
	st.mu.Lock()
	st.ringLocked(name, labels, nil).next(t)[0] = v
	st.touchLocked(t)
	st.mu.Unlock()
}

// PutHistogram records one snapshot of a histogram as one sample of
// the (h.Name, h.Labels) series: the cumulative count of every bucket,
// with h.Count as the +Inf bucket. A histogram's buckets are read back
// through QuantileOver and Build, not Family or Get.
func (st *Store) PutHistogram(h metrics.HistSample, t time.Time) {
	if h.Bounds == nil { // nil bounds would shape a scalar ring
		h.Bounds = []float64{}
	}
	st.mu.Lock()
	st.ringLocked(h.Name, h.Labels, h.Bounds).putHist(t, h)
	st.touchLocked(t)
	st.mu.Unlock()
}

// touchLocked advances the newest sample time. The caller must hold
// st.mu.
func (st *Store) touchLocked(t time.Time) {
	if !st.hasNewest || t.After(st.newest) {
		st.newest = t
		st.hasNewest = true
	}
}

// ringLocked returns the ring behind (name, labels), creating it on
// first sight and reshaping it (dropping its samples) when it was
// shaped for other bucket bounds; nil bounds mean a scalar series. The
// caller must hold st.mu. The sampler keeps the returned handles
// across ticks so the steady-state path never rebuilds the
// sorted-label key.
func (st *Store) ringLocked(name string, labels map[string]string, bounds []float64) *ring {
	k := key(name, labels)
	r, ok := st.rings[k]
	if !ok {
		r = &ring{name: name, key: k, labels: maps.Clone(labels)}
		r.reset(bounds, st.slots)
		st.rings[k] = r
		fam := st.byName[name]
		st.byName[name] = slices.Insert(fam, sort.Search(len(fam), func(i int) bool { return fam[i].key >= k }), r)
	} else if !r.holds(bounds) {
		r.reset(bounds, st.slots)
	}
	return r
}

// dropStaleLocked drops every ring whose newest sample is older than
// cutoff: no window read can see it any more, and a sampled series
// that stops being written has left its registry. The caller must
// hold st.mu.
func (st *Store) dropStaleLocked(cutoff time.Time) {
	for k, r := range st.rings {
		if !r.at(r.n - 1).Before(cutoff) {
			continue
		}
		delete(st.rings, k)
		fam := st.byName[r.name]
		at := sort.Search(len(fam), func(i int) bool { return fam[i].key >= k })
		if fam = slices.Delete(fam, at, at+1); len(fam) == 0 {
			delete(st.byName, r.name)
		} else {
			st.byName[r.name] = fam
		}
	}
}

// Family returns every retained scalar series with the given metric
// name, sorted by key, with points ordered oldest → newest.
func (st *Store) Family(name string) []Series {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out []Series
	for _, r := range st.byName[name] {
		if r.bounds == nil {
			out = append(out, Series{Name: r.name, Labels: r.labels, Points: r.points()})
		}
	}
	return out
}

// Get returns the scalar series exactly matching (name, labels), or a
// Series with no points when it was never written.
func (st *Store) Get(name string, labels map[string]string) Series {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if r, ok := st.rings[key(name, labels)]; ok && r.bounds == nil {
		return Series{Name: r.name, Labels: r.labels, Points: r.points()}
	}
	return Series{Name: name, Labels: labels}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Names returns the distinct metric names present, sorted.
func (st *Store) Names() []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return sortedKeys(st.byName)
}

// Len returns the number of retained series; a histogram counts once.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.rings)
}

// Newest returns the latest sample time across all series, and false
// when the store is empty. Build uses it as "now" so that timelines
// over synthetically-timed samples (tests, replays) stay
// deterministic.
func (st *Store) Newest() (time.Time, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.newest, st.hasNewest
}
