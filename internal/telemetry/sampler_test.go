package telemetry

import (
	"sync"
	"testing"
	"time"

	"hstreams/internal/metrics"
)

func TestSamplerSnapshotsRegistry(t *testing.T) {
	reg := metrics.New()
	c := reg.Counter("work_total", "test counter")
	h := reg.Histogram("lat_seconds", "test latency", []float64{0.1, 1})
	st := NewStore(time.Minute, 16)
	sam := NewSampler(SamplerOptions{Registry: reg, Store: st, Interval: time.Hour})

	c.Add(3)
	h.Observe(50 * time.Millisecond)
	sam.SampleOnce(base)
	c.Add(4)
	sam.SampleOnce(base.Add(time.Second))

	s := st.Get("work_total", nil)
	if len(s.Points) != 2 || s.Points[0].V != 3 || s.Points[1].V != 7 {
		t.Fatalf("work_total series = %+v, want values 3 then 7", s.Points)
	}
	// A histogram is one series whose samples hold the cumulative
	// bucket counts, one per bound plus +Inf.
	r := st.rings["lat_seconds"]
	if r == nil || r.n != 2 || !r.holds([]float64{0.1, 1}) {
		t.Fatalf("lat_seconds ring = %+v, want two samples over bounds 0.1, 1", r)
	}
	for j := 0; j < 3; j++ {
		if v := r.val(1, j); v != 1 {
			t.Fatalf("bucket %d cumulative = %v, want 1", j, v)
		}
	}
	if fam := st.Family("lat_seconds_bucket"); len(fam) != 0 {
		t.Fatalf("store holds %d per-bucket series, want none", len(fam))
	}
	// The sampler reports on itself into the registry it samples.
	var sawSelf bool
	for _, s := range reg.Snapshot() {
		if s.Name == "hstreams_telemetry_samples_total" && s.Value >= 2 {
			sawSelf = true
		}
	}
	if !sawSelf {
		t.Fatal("sampler self-metric hstreams_telemetry_samples_total missing or zero")
	}
}

func TestSamplerStartStopIdempotent(t *testing.T) {
	reg := metrics.New()
	reg.Counter("x_total", "test").Inc()
	st := NewStore(time.Minute, 16)
	sam := NewSampler(SamplerOptions{Registry: reg, Store: st, Interval: time.Millisecond})
	sam.Start()
	sam.Start()
	time.Sleep(5 * time.Millisecond)
	sam.Stop()
	sam.Stop()
	if len(st.Get("x_total", nil).Points) == 0 {
		t.Fatal("running sampler recorded nothing")
	}
}

func TestSamplerStopWithoutStart(t *testing.T) {
	sam := NewSampler(SamplerOptions{Registry: metrics.New(), Store: NewStore(time.Minute, 4)})
	done := make(chan struct{})
	go func() { sam.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Stop of a never-started sampler hangs")
	}
}

// TestSamplerConcurrentWithWriters hammers the registry from writer
// goroutines while the sampler snapshots it and a reader builds
// timelines — the snapshot-while-scheduling interleaving the race
// detector must bless.
func TestSamplerConcurrentWithWriters(t *testing.T) {
	reg := metrics.New()
	c := reg.Counter("hammer_total", "test counter")
	g := reg.Gauge("hammer_depth", "test gauge")
	h := reg.Histogram("hammer_seconds", "test latency", []float64{1e-6, 1e-3, 1})
	st := NewStore(time.Second, 64)
	sam := NewSampler(SamplerOptions{Registry: reg, Store: st, Interval: 100 * time.Microsecond})
	sam.Start()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(int64(i % 100))
				h.ObserveEx(time.Duration(i%1000)*time.Microsecond, uint64(w*1000+i+1), int64(i))
			}
		}(w)
	}
	deadline := time.After(50 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			Build(st, reg, 0)
		}
	}
	close(stop)
	wg.Wait()
	sam.Stop()

	tl := Build(st, reg, 0)
	if tl.Samples == 0 {
		t.Fatal("no samples retained after concurrent run")
	}
	s := st.Get("hammer_total", nil)
	if last := s.Last(); last.V == 0 {
		t.Fatalf("hammer_total final sample = %+v, want nonzero", last)
	}
}
