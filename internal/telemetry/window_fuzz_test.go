package telemetry

import (
	"maps"
	"math"
	"sort"
	"testing"
	"time"

	"hstreams/internal/metrics"
)

// clip returns the suffix of ordered points at or after cutoff.
func clip(pts []Point, cutoff time.Time) []Point {
	i := sort.Search(len(pts), func(i int) bool { return !pts[i].T.Before(cutoff) })
	return pts[i:]
}

// windowDeltaPts is the by-value reference for ring.window's delta:
// all is a series' full retained point slice, pts its in-window suffix
// (clip(all, cutoff)), slots the ring capacity. The baseline is the
// newest retained point before the cutoff when one exists; zero for a
// series whose entire history is retained and inside the window; else
// the window's first point.
func windowDeltaPts(all, pts []Point, slots int) (float64, time.Duration) {
	if len(pts) == 0 {
		return 0, 0
	}
	last := pts[len(pts)-1]
	if dropped := len(all) - len(pts); dropped > 0 {
		base := all[dropped-1]
		return last.V - base.V, last.T.Sub(base.T)
	}
	if len(all) < slots { // born inside the retained window
		return last.V, last.T.Sub(pts[0].T)
	}
	if len(pts) < 2 {
		return 0, 0
	}
	return last.V - pts[0].V, last.T.Sub(pts[0].T)
}

// FuzzStoreWindow drives a small store with a random sequence of
// writes — three scalar series and one histogram, at times that may
// repeat — and checks every windowed query against the by-value
// reference computed on copies of the retained points.
func FuzzStoreWindow(f *testing.F) {
	f.Add([]byte{0x10, 0x21, 0x32, 0x03, 0x44, 0xf5, 0x06, 0x17}, uint8(4), uint16(5000))
	f.Add([]byte{0x00, 0x00, 0x13, 0x13, 0x23, 0x70, 0x71, 0x72, 0x73, 0x10}, uint8(1), uint16(0))
	f.Add([]byte{0x31, 0x32, 0x33, 0x30, 0x31, 0x32, 0x33, 0x30, 0x31, 0x32, 0x33}, uint8(16), uint16(65000))
	f.Fuzz(func(t *testing.T, ops []byte, slots uint8, windowMs uint16) {
		n := int(slots%16) + 1
		st := NewStore(10*time.Second, n)
		bounds := []float64{0.5, 2}
		var hist [3][]Point // by-value history of each bucket column
		now := base
		for i, b := range ops {
			now = now.Add(time.Duration(b>>4) * 400 * time.Millisecond)
			v := float64(i*7%11) + float64(b>>4)
			if s := b & 3; s < 3 {
				st.Put("c", map[string]string{"s": string(rune('a' + s))}, now, v)
				continue
			}
			cum := []int64{int64(i), int64(i + int(b>>4)), int64(2*i + int(b>>4))}
			st.PutHistogram(metrics.HistSample{Name: "h", Bounds: bounds, Cumulative: cum, Count: cum[2]}, now)
			for j := range hist {
				hist[j] = append(hist[j], Point{T: now, V: float64(cum[j])})
				if len(hist[j]) > n {
					hist[j] = hist[j][1:]
				}
			}
		}
		newest, ok := st.Newest()
		if !ok {
			return
		}
		window := time.Duration(windowMs) * time.Millisecond
		w := window
		if w <= 0 || w > st.Window() {
			w = st.Window()
		}
		cutoff := newest.Add(-w)

		fam := st.Family("c")
		latest, deltas, rates := st.LatestOver("c", nil, window), st.DeltaOver("c", nil, window), st.RateOver("c", nil, window)
		k := 0
		for _, s := range fam {
			pts := clip(s.Points, cutoff)
			if len(pts) == 0 {
				continue
			}
			if k >= len(deltas) || k >= len(latest) || k >= len(rates) {
				t.Fatalf("series %v: missing from the query results", s.Labels)
			}
			last := pts[len(pts)-1]
			if l := latest[k]; l.Value != last.V || l.Span != last.T.Sub(pts[0].T) || !maps.Equal(l.Labels, s.Labels) {
				t.Fatalf("LatestOver %v = %+v, want %v over %v", s.Labels, l, last.V, last.T.Sub(pts[0].T))
			}
			d, sp := windowDeltaPts(s.Points, pts, n)
			if got := deltas[k]; got.Value != d || got.Span != sp {
				t.Fatalf("DeltaOver %v = %+v, want %v over %v", s.Labels, got, d, sp)
			}
			if sp <= 0 {
				sp = w
			}
			if got := rates[k].Value; got != d/sp.Seconds() {
				t.Fatalf("RateOver %v = %v, want %v", s.Labels, got, d/sp.Seconds())
			}
			k++
		}
		if k != len(deltas) || k != len(latest) || k != len(rates) {
			t.Fatalf("queries returned %d/%d/%d series, want %d", len(latest), len(deltas), len(rates), k)
		}

		var want []float64
		var span time.Duration
		for j := range hist {
			d, sp := windowDeltaPts(hist[j], clip(hist[j], cutoff), n)
			want = append(want, d)
			span = sp
		}
		got := st.QuantileOver("h", nil, 0.9, window)
		if len(hist[2]) == 0 || len(clip(hist[2], cutoff)) == 0 || want[2] <= 0 {
			if len(got) != 0 {
				t.Fatalf("QuantileOver = %+v, want no value", got)
			}
			return
		}
		q := bucketQuantile(0.9, []float64{0.5, 2, math.Inf(1)}, want)
		if len(got) != 1 || got[0].Count != want[2] || got[0].Value != q || got[0].Span != span {
			t.Fatalf("QuantileOver = %+v, want count %v, value %v over %v", got, want[2], q, span)
		}
	})
}
