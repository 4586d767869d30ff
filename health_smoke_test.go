// Acceptance test for the runtime health engine: a seeded Real-mode
// chaos run must trip a domain breaker, drive /debug/health from ok
// to critical (readiness probe failing), journal a deterministic
// event skeleton, and recover to ok once the runtime finalizes and
// the triggering deltas slide out of the telemetry window. Run it
// alone with `go test -run TestHealthSmoke .`.
package hstreams_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hstreams/internal/app"
	"hstreams/internal/core"
	"hstreams/internal/debugserver"
	"hstreams/internal/fault"
	"hstreams/internal/health"
	"hstreams/internal/matmul"
	"hstreams/internal/metrics"
	"hstreams/internal/platform"
	"hstreams/internal/telemetry"
)

// healthDoc is the slice of the /debug/health JSON this test reads.
type healthDoc struct {
	Severity string `json:"severity"`
	Live     bool   `json:"live"`
	Ready    bool   `json:"ready"`
}

// getHealth fetches and decodes /debug/health.
func getHealth(t *testing.T, url string) healthDoc {
	t.Helper()
	resp, err := http.Get(url + "/debug/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc healthDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// probeStatus fetches ?probe=ready and returns the HTTP status code.
func probeStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url + "/debug/health?probe=ready")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// waitSeverity polls /debug/health until the severity matches or the
// timeout expires, returning the last document either way.
func waitSeverity(t *testing.T, url, want string, timeout time.Duration) (healthDoc, bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var doc healthDoc
	for time.Now().Before(deadline) {
		doc = getHealth(t, url)
		if doc.Severity == want {
			return doc, true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return doc, false
}

func TestHealthSmoke(t *testing.T) {
	// Private observability stack: a short 1s telemetry window so rate
	// rules self-clear quickly after the faults stop, a fast sampler
	// driving the engine tick, and the journal fed by the runtime's
	// lifecycle-event hook.
	reg := metrics.New()
	st := telemetry.NewStore(time.Second, 200)
	journal := health.NewJournal(256, reg)
	// rts is published after the sampler is already ticking, so the
	// engine (and the debug server, through it) must read it under the
	// same lock as the append below.
	var (
		rtsMu sync.Mutex
		rts   []*core.Runtime
	)
	getRTs := func() []*core.Runtime {
		rtsMu.Lock()
		defer rtsMu.Unlock()
		return append([]*core.Runtime(nil), rts...)
	}
	engine := health.New(health.Options{
		Store:    st,
		Registry: reg,
		Journal:  journal,
		Runtimes: getRTs,
	})
	sampler := telemetry.NewSampler(telemetry.SamplerOptions{
		Registry: reg,
		Store:    st,
		Interval: 2 * time.Millisecond,
		OnSample: engine.Tick,
	})
	srv := httptest.NewServer(debugserver.Handler(debugserver.Options{Health: engine}))
	defer srv.Close()
	sampler.Start()
	defer sampler.Stop()

	// Seeded Real-mode chaos run tuned to trip the KNC0 breaker:
	// heavy transient faults against the chaos figure's retry budget
	// and a 3-strike breaker, so individual actions survive retries
	// until the domain quarantines and its work re-routes to the
	// host. Verification must still pass.
	plan := fault.Plan{Seed: 1, TransferError: 0.4, KernelError: 0.4}
	a, err := app.Init(app.Options{
		Machine:        platform.HSWPlusKNC(1),
		Mode:           core.ModeReal,
		StreamsPerCard: 2,
		HostStreams:    2,
		Metrics:        reg,
		Faults:         fault.NewInjector(plan, reg),
		Retry:          core.RetryPolicy{Max: 8, Backoff: 50 * time.Microsecond},
		Breaker:        core.BreakerPolicy{Threshold: 3},
		OnEvent:        journal.CoreEvent,
	})
	if err != nil {
		t.Fatal(err)
	}
	rtsMu.Lock()
	rts = append(rts, a.RT)
	rtsMu.Unlock()
	matmul.RegisterExtra(a.RT)
	if _, err := matmul.Run(a, matmul.Config{N: 96, Tile: 12, UseHost: true, LoadBalance: true, Verify: true}); err != nil {
		a.Fini()
		t.Fatalf("chaos matmul failed verification: %v", err)
	}

	// The domain is quarantined until Fini: the threshold rule holds
	// the verdict critical and readiness fails.
	doc, ok := waitSeverity(t, srv.URL, "critical", 5*time.Second)
	if !ok {
		t.Fatalf("health never went critical while quarantined: %+v", doc)
	}
	if doc.Ready {
		t.Fatalf("critical verdict still reports ready: %+v", doc)
	}
	if code := probeStatus(t, srv.URL); code != http.StatusServiceUnavailable {
		t.Fatalf("?probe=ready at critical = %d, want 503", code)
	}

	// Fini formally clears the quarantine; the sampler keeps running,
	// so the rate deltas slide out of the 1s window and the verdict
	// recovers.
	a.Fini()
	doc, ok = waitSeverity(t, srv.URL, "ok", 20*time.Second)
	if !ok {
		t.Fatalf("health never recovered after Fini: %+v", doc)
	}
	if !doc.Live || !doc.Ready {
		t.Fatalf("recovered verdict = %+v, want live and ready", doc)
	}
	if code := probeStatus(t, srv.URL); code != http.StatusOK {
		t.Fatalf("?probe=ready after recovery = %d, want 200", code)
	}

	// Journal skeleton: the breaker trips exactly once (the quarantine
	// is one-way per runtime), the quarantine formally clears, rule
	// transitions are journaled, and sequence numbers are strictly
	// increasing — the deterministic seeded run always yields this
	// shape.
	snap := journal.Snapshot()
	var trips, cleared, transitions int
	for i, ev := range snap {
		if i > 0 && ev.Seq <= snap[i-1].Seq {
			t.Fatalf("journal seqs not strictly increasing: %d then %d", snap[i-1].Seq, ev.Seq)
		}
		switch ev.Kind {
		case health.KindBreakerTrip:
			trips++
			if ev.Domain != "KNC0" {
				t.Fatalf("breaker trip on %q, want KNC0", ev.Domain)
			}
		case health.KindQuarantineCleared:
			cleared++
		case health.KindRuleTransition:
			transitions++
		}
	}
	if trips != 1 {
		t.Fatalf("journal records %d breaker trips, want exactly 1", trips)
	}
	if cleared != 1 {
		t.Fatalf("journal records %d quarantine-cleared events, want exactly 1", cleared)
	}
	if transitions < 2 {
		t.Fatalf("journal records %d rule transitions, want at least ok→critical→ok", transitions)
	}

	// /debug/events agrees with the journal's accounting.
	resp, err := http.Get(srv.URL + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	var events struct {
		Total  uint64 `json:"total"`
		Events []struct {
			Seq  uint64 `json:"seq"`
			Kind string `json:"kind"`
		} `json:"events"`
	}
	err = json.NewDecoder(resp.Body).Decode(&events)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if events.Total < uint64(len(snap)) || len(events.Events) == 0 {
		t.Fatalf("/debug/events total %d with %d events, want at least the %d snapshotted", events.Total, len(events.Events), len(snap))
	}
}
