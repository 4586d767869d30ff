package telemetry

// query.go is the windowed query API over a Store: the building blocks
// the health rule engine (internal/health) evaluates declarative SLO
// rules with. Every query answers "over the last window, what did the
// matching series do": last value, counter increase, per-second rate,
// or an interpolated histogram quantile from bucket-count deltas. All
// of them read the rings in place through ring.window, the same
// primitive Build uses.

import "time"

// WindowValue is one matching series' windowed query result.
type WindowValue struct {
	// Labels identify the series.
	Labels map[string]string `json:"labels,omitempty"`
	// Value is the query result: last value, delta, per-second rate,
	// or quantile in seconds, depending on the query.
	Value float64 `json:"value"`
	// Span is the observed in-window time span the value covers.
	Span time.Duration `json:"span,omitempty"`
	// Count is the in-window observation count (quantile queries only).
	Count float64 `json:"count,omitempty"`
}

// MatchLabels reports whether the series labels contain every pair of
// match (subset semantics, like a PromQL selector); a nil or empty
// match matches everything.
func MatchLabels(labels, match map[string]string) bool {
	for k, v := range match {
		if labels[k] != v {
			return false
		}
	}
	return true
}

// clampWindow maps a non-positive or oversized query window to the
// store's.
func (st *Store) clampWindow(window time.Duration) time.Duration {
	if window <= 0 || window > st.window {
		return st.window
	}
	return window
}

// over calls eachLocked under one read lock, with the cutoff of the
// given query window.
func (st *Store) over(name string, match map[string]string, window time.Duration, hist bool, fn func(r *ring, w win)) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.hasNewest {
		st.eachLocked(name, match, st.newest.Add(-st.clampWindow(window)), hist, fn)
	}
}

// eachLocked calls fn with the window view of every ring of the named
// family that is a histogram (hist) or a scalar (!hist), whose labels
// contain match, and that has samples after cutoff. The caller must
// hold st.mu.
func (st *Store) eachLocked(name string, match map[string]string, cutoff time.Time, hist bool, fn func(r *ring, w win)) {
	for _, r := range st.byName[name] {
		if (r.bounds != nil) != hist || !MatchLabels(r.labels, match) {
			continue
		}
		if w := r.window(cutoff); !w.empty() {
			fn(r, w)
		}
	}
}

// LatestOver returns the newest retained in-window value of every
// series of the named family whose labels contain match. A
// non-positive window means the store's full window; series with no
// in-window points are omitted.
func (st *Store) LatestOver(name string, match map[string]string, window time.Duration) []WindowValue {
	var out []WindowValue
	st.over(name, match, window, false, func(r *ring, w win) {
		out = append(out, WindowValue{Labels: r.labels, Value: w.last(0), Span: r.at(r.n - 1).Sub(r.at(w.first))})
	})
	return out
}

// DeltaOver returns each matching series' counter increase across the
// window (baseline rules: ring.window). Series with no in-window
// points are omitted; zero deltas are kept so callers can tell "no
// increase" from "no data".
func (st *Store) DeltaOver(name string, match map[string]string, window time.Duration) []WindowValue {
	var out []WindowValue
	st.over(name, match, window, false, func(r *ring, w win) {
		out = append(out, WindowValue{Labels: r.labels, Value: w.delta(0), Span: w.span()})
	})
	return out
}

// RateOver returns each matching series' per-second windowed rate: the
// counter delta divided by the observed span (falling back to the
// window length when no in-window time elapsed).
func (st *Store) RateOver(name string, match map[string]string, window time.Duration) []WindowValue {
	out := st.DeltaOver(name, match, window)
	for i := range out {
		sp := out[i].Span
		if sp <= 0 {
			sp = st.clampWindow(window)
		}
		out[i].Value /= sp.Seconds()
	}
	return out
}

// QuantileOver interpolates the q-quantile of each matching histogram
// from its in-window bucket-count deltas, PromQL histogram_quantile
// style. name is the histogram family (written by PutHistogram).
// Histograms with no in-window observations are omitted — "empty
// window" yields no verdict rather than a misleading zero. Count
// carries the in-window observation total.
func (st *Store) QuantileOver(name string, match map[string]string, q float64, window time.Duration) []WindowValue {
	var out []WindowValue
	var deltas []float64
	st.over(name, match, window, true, func(r *ring, w win) {
		deltas = w.deltas(deltas[:0])
		if total := deltas[len(deltas)-1]; total > 0 { // cumulative → the +Inf bucket
			out = append(out, WindowValue{Labels: r.labels, Value: bucketQuantile(q, r.bounds, deltas), Span: w.span(), Count: total})
		}
	})
	return out
}
