package telemetry

import (
	"maps"
	"sync"
	"time"

	"hstreams/internal/metrics"
)

// SamplerOptions configures NewSampler. The zero value samples the
// process-default registry into the process-default store every
// DefInterval.
type SamplerOptions struct {
	// Registry is the metrics registry to snapshot. Nil means
	// metrics.Default().
	Registry *metrics.Registry
	// Store receives the sampled points. Nil means Default().
	Store *Store
	// Interval is the sampling period. Non-positive means DefInterval.
	Interval time.Duration
	// OnSample, when non-nil, runs synchronously on the sampling
	// goroutine at the end of every snapshot, after the store holds the
	// tick's points. The health engine hangs its rule-evaluation +
	// watchdog tick here so verdicts ride the sampler cadence instead
	// of needing their own timer. It must not call back into the
	// sampler.
	OnSample func(now time.Time)
}

// Sampler periodically snapshots a metrics registry into a Store. It
// walks the registry's lock-free atomics (Snapshot plus
// SnapshotHistograms for per-bucket detail), so sampling never blocks
// the scheduler hot path; the only synchronization is the store's own
// mutex, which no scheduler goroutine touches.
//
// The sampler registers two self-metrics on the registry it samples —
// hstreams_telemetry_samples_total and hstreams_telemetry_series — so
// its own liveness shows up in the timeline it produces.
type Sampler struct {
	reg      *metrics.Registry
	store    *Store
	interval time.Duration

	samples  *metrics.Counter
	series   *metrics.Gauge
	onSample func(time.Time)

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}

	// Ring handles from the previous tick, aligned with the
	// registry's deterministic snapshot order. Each entry is validated
	// (name, labels and bucket bounds) before reuse, so a registry that
	// grew mid-run only costs the shifted entries one slow-path
	// resolution; the steady state never rebuilds the store's
	// sorted-label keys. Touched only by the sampling goroutine (or
	// synchronous SampleOnce callers).
	scalars []*ring
	hists   []*ring
}

// NewSampler builds a sampler from opts (see SamplerOptions for the
// zero-value defaults). The sampler is idle until Start; SampleOnce
// may also be called directly for synchronous, test-controlled
// sampling.
func NewSampler(opts SamplerOptions) *Sampler {
	reg := opts.Registry
	if reg == nil {
		reg = metrics.Default()
	}
	st := opts.Store
	if st == nil {
		st = Default()
	}
	iv := opts.Interval
	if iv <= 0 {
		iv = DefInterval
	}
	return &Sampler{
		reg:      reg,
		store:    st,
		interval: iv,
		samples:  reg.Counter("hstreams_telemetry_samples_total", "Snapshots taken by the telemetry sampler."),
		series:   reg.Gauge("hstreams_telemetry_series", "Time series retained in the telemetry store; a histogram counts once."),
		onSample: opts.OnSample,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Store returns the store this sampler writes to.
func (s *Sampler) Store() *Store { return s.store }

// Interval returns the sampling period.
func (s *Sampler) Interval() time.Duration { return s.interval }

// Start launches the sampling goroutine. It takes one sample
// immediately, then one per interval until Stop. Start is idempotent.
func (s *Sampler) Start() {
	s.startOnce.Do(func() {
		go func() {
			defer close(s.done)
			s.SampleOnce(time.Now())
			t := time.NewTicker(s.interval)
			defer t.Stop()
			for {
				select {
				case <-s.stop:
					return
				case now := <-t.C:
					s.SampleOnce(now)
				}
			}
		}()
	})
}

// Stop halts the sampling goroutine and waits for it to exit, then
// takes one final sample so the store's newest points reflect the
// end-of-run totals. Stop is idempotent and safe to call even if
// Start never ran.
func (s *Sampler) Stop() {
	s.stopOnce.Do(func() {
		close(s.stop)
	})
	s.startOnce.Do(func() { close(s.done) }) // never started: mark done
	<-s.done
	s.SampleOnce(time.Now())
}

// SampleOnce takes one synchronous snapshot of the registry at the
// given sample time: every flat sample (counters, gauges, histogram
// _count/_sum) becomes a point of its series, and every histogram's
// cumulative bucket counts become one sample of the histogram's series,
// from which windowed quantiles are derived. It then drops the rings no
// write has reached for a whole window: their series have left the
// registry, so a churning label (a deleted tenant) costs the store
// nothing once its last sample ages out.
func (s *Sampler) SampleOnce(now time.Time) {
	samples := s.reg.Snapshot()
	hists := s.reg.SnapshotHistograms()

	st := s.store
	st.mu.Lock()
	if len(s.scalars) != len(samples) {
		s.scalars = make([]*ring, len(samples))
	}
	for i, smp := range samples {
		cachedRing(st, s.scalars, i, smp.Name, smp.Labels, nil).next(now)[0] = smp.Value
	}
	if len(s.hists) != len(hists) {
		s.hists = make([]*ring, len(hists))
	}
	for i, h := range hists {
		cachedRing(st, s.hists, i, h.Name, h.Labels, h.Bounds).putHist(now, h)
	}
	if written := len(samples) + len(hists); written > 0 {
		st.touchLocked(now)
		if len(st.rings) > written {
			st.dropStaleLocked(now.Add(-st.window))
		}
	}
	nseries := len(st.rings)
	st.mu.Unlock()

	s.samples.Inc()
	s.series.Set(int64(nseries))
	if s.onSample != nil {
		s.onSample(now)
	}
}

// cachedRing returns the ring for entry i of a snapshot, reusing the
// previous tick's handle when it still names the same series and
// shape. The caller must hold st.mu.
func cachedRing(st *Store, cache []*ring, i int, name string, labels map[string]string, bounds []float64) *ring {
	if r := cache[i]; r != nil && r.name == name && maps.Equal(r.labels, labels) && r.holds(bounds) {
		return r
	}
	cache[i] = st.ringLocked(name, labels, bounds)
	return cache[i]
}
