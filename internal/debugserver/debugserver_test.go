package debugserver

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"hstreams/internal/core"
	"hstreams/internal/health"
	"hstreams/internal/metrics"
	"hstreams/internal/platform"
	"hstreams/internal/telemetry"
	"hstreams/internal/trace"
)

// runProbe drives a transfer → compute → transfer chain on one card
// stream so every endpoint has data to serve.
func runProbe(t *testing.T, reg *metrics.Registry, flight *trace.FlightRecorder) *core.Runtime {
	t.Helper()
	rt, err := core.Init(core.Config{
		Machine: platform.HSWPlusKNC(1),
		Mode:    core.ModeSim,
		Metrics: reg,
		Flight:  flight,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := rt.StreamCreate(rt.Card(0), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rt.Alloc1D("probe", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnqueueXferAll(b, core.ToSink); err != nil {
		t.Fatal(err)
	}
	cost := platform.Cost{Kernel: platform.KDGEMM, Flops: 1e9, Bytes: 1 << 20, N: 512}
	if _, err := s.EnqueueCompute("k", nil, []core.Operand{b.All(core.InOut)}, cost); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnqueueXferAll(b, core.ToSource); err != nil {
		t.Fatal(err)
	}
	rt.ThreadSynchronize()
	return rt
}

// engineOver builds the health engine a test server serves from: its
// registry, its store (nil: the engine's own) and the given runtimes.
func engineOver(reg *metrics.Registry, st *telemetry.Store, rts ...*core.Runtime) *health.Engine {
	return health.New(health.Options{Registry: reg, Store: st, Runtimes: func() []*core.Runtime { return rts }})
}

func get(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, body)
	}
	return string(body)
}

func TestEndpoints(t *testing.T) {
	reg := metrics.New()
	flight := trace.NewFlight(1024)
	rt := runProbe(t, reg, flight)
	defer rt.Fini()

	srv := httptest.NewServer(Handler(Options{Health: engineOver(reg, nil, rt), Flight: flight}))
	defer srv.Close()

	if body := get(t, srv, "/"); !strings.Contains(body, "/debug/critpath") {
		t.Fatalf("index missing endpoint listing:\n%s", body)
	}
	if body := get(t, srv, "/metrics"); !strings.Contains(body, "hstreams_actions_total") {
		t.Fatalf("/metrics missing action counters:\n%s", body)
	}
	if body := get(t, srv, "/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ missing profile index:\n%s", body)
	}

	var chrome []map[string]any
	body := get(t, srv, "/debug/trace")
	if err := json.Unmarshal([]byte(body), &chrome); err != nil {
		t.Fatalf("/debug/trace not valid JSON: %v\n%s", err, body)
	}
	var flows int
	for _, ev := range chrome {
		if ev["ph"] == "s" {
			flows++
		}
	}
	if flows == 0 {
		t.Fatalf("/debug/trace has no flow (dependency) events:\n%s", body)
	}

	var streams struct {
		Runtimes []struct {
			Run     uint64 `json:"run"`
			Mode    string `json:"mode"`
			Streams []struct {
				Name  string `json:"name"`
				Depth int    `json:"depth"`
			} `json:"streams"`
			Links []struct {
				Src   string `json:"src"`
				Bytes int64  `json:"bytes"`
			} `json:"links"`
		} `json:"runtimes"`
		Flight struct {
			Total uint64 `json:"total"`
		} `json:"flight"`
	}
	body = get(t, srv, "/debug/streams")
	if err := json.Unmarshal([]byte(body), &streams); err != nil {
		t.Fatalf("/debug/streams not valid JSON: %v\n%s", err, body)
	}
	if len(streams.Runtimes) != 1 || streams.Runtimes[0].Mode != "sim" {
		t.Fatalf("/debug/streams runtimes = %+v", streams.Runtimes)
	}
	if len(streams.Runtimes[0].Streams) != 1 {
		t.Fatalf("/debug/streams streams = %+v", streams.Runtimes[0].Streams)
	}
	if len(streams.Runtimes[0].Links) == 0 {
		t.Fatal("/debug/streams missing link stats")
	}
	if streams.Flight.Total == 0 {
		t.Fatal("/debug/streams flight.total = 0, want recorded spans")
	}

	if body := get(t, srv, "/debug/critpath"); !strings.Contains(body, "critical path") {
		t.Fatalf("/debug/critpath missing report:\n%s", body)
	}
	var rep trace.CritReport
	body = get(t, srv, "/debug/critpath?format=json")
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/debug/critpath?format=json: %v\n%s", err, body)
	}
	if rep.Makespan <= 0 || rep.CategorySum() != rep.Makespan {
		t.Fatalf("critpath JSON: makespan %v, category sum %v", rep.Makespan, rep.CategorySum())
	}

	// Bad run selectors are rejected, unknown paths 404.
	if resp, err := http.Get(srv.URL + "/debug/critpath?run=x"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad run selector: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(srv.URL + "/nosuch"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
}

// TestRunSelector: ?run= on /debug/trace and /debug/critpath takes a
// whole positive decimal integer or nothing. Anything else is a 400 —
// never a prefix of the input read as a run id.
func TestRunSelector(t *testing.T) {
	flight := trace.NewFlight(1024)
	rt := runProbe(t, metrics.New(), flight)
	defer rt.Fini()
	srv := httptest.NewServer(Handler(Options{Health: engineOver(metrics.New(), nil, rt), Flight: flight}))
	defer srv.Close()

	run := strconv.FormatUint(rt.RunID(), 10)
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"", http.StatusOK},
		{"?run=" + run, http.StatusOK},
		{"?run=999999", http.StatusOK}, // unknown run: empty, not an error
		{"?run=" + run + "abc", http.StatusBadRequest},
		{"?run=" + run + "%209", http.StatusBadRequest}, // "N 9"
		{"?run=%20" + run, http.StatusBadRequest},
		{"?run=%2B" + run, http.StatusBadRequest}, // "+N"
		{"?run=0x1", http.StatusBadRequest},
		{"?run=0", http.StatusBadRequest},
		{"?run=-1", http.StatusBadRequest},
		{"?run=x", http.StatusBadRequest},
		{"?run=18446744073709551616", http.StatusBadRequest}, // 2^64
	} {
		for _, path := range []string{"/debug/trace", "/debug/critpath"} {
			resp, err := http.Get(srv.URL + path + tc.query)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("GET %s%s: status %d, want %d", path, tc.query, resp.StatusCode, tc.want)
			}
		}
	}
}

// TestStatusWhileRunning hits /debug/streams concurrently with a
// Real-mode runtime that is actively executing, exercising the
// lock-discipline of the status snapshot under -race.
func TestStatusWhileRunning(t *testing.T) {
	reg := metrics.New()
	flight := trace.NewFlight(1024)
	rt, err := core.Init(core.Config{
		Machine: platform.HSWPlusKNC(1),
		Mode:    core.ModeReal,
		Metrics: reg,
		Flight:  flight,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Fini()
	rt.RegisterKernel("spin", func(ctx *core.KernelCtx) {
		for i := range ctx.Ops[0] {
			ctx.Ops[0][i]++
		}
	})
	s, err := rt.StreamCreate(rt.Card(0), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rt.Alloc1D("b", 1<<16)
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(Handler(Options{Health: engineOver(reg, nil, rt), Flight: flight}))
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if _, err := s.EnqueueXferAll(b, core.ToSink); err != nil {
				t.Error(err)
				return
			}
			if _, err := s.EnqueueCompute("spin", nil, []core.Operand{b.All(core.InOut)}, platform.Cost{}); err != nil {
				t.Error(err)
				return
			}
		}
		rt.ThreadSynchronize()
	}()
	for i := 0; i < 10; i++ {
		get(t, srv, "/debug/streams")
		get(t, srv, "/metrics")
	}
	<-done
	if err := rt.Err(); err != nil {
		t.Fatal(err)
	}
}

// getStatus fetches a path and returns the status code and body
// without asserting 200.
func getStatus(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestTimelineParams covers the /debug/timeline parameter contract:
// malformed or non-positive window/step values are rejected with 400,
// an oversized window clamps to the store retention, and a valid step
// thins the sample series while reporting itself in step_nanos.
func TestTimelineParams(t *testing.T) {
	reg := metrics.New()
	st := telemetry.NewStore(time.Minute, 60) // 1s resolution
	now := time.Now()
	for i := 0; i < 30; i++ {
		st.Put("c_total", nil, now.Add(time.Duration(i-30)*time.Second), float64(i))
	}
	srv := httptest.NewServer(Handler(Options{Health: engineOver(reg, st)}))
	defer srv.Close()

	for _, bad := range []string{
		"/debug/timeline?window=abc",
		"/debug/timeline?window=-1s",
		"/debug/timeline?window=0s",
		"/debug/timeline?step=abc",
		"/debug/timeline?step=-1ms",
		"/debug/timeline?step=0s",
	} {
		if code, body := getStatus(t, srv, bad); code != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400\n%s", bad, code, body)
		}
	}

	var tl struct {
		WindowNanos int64 `json:"window_nanos"`
		StepNanos   int64 `json:"step_nanos"`
		Samples     int   `json:"samples"`
	}
	// An oversized window clamps to the store's retention.
	if err := json.Unmarshal([]byte(get(t, srv, "/debug/timeline?window=5m")), &tl); err != nil {
		t.Fatal(err)
	}
	if tl.WindowNanos != int64(time.Minute) {
		t.Fatalf("window=5m reported %d ns, want clamp to %d", tl.WindowNanos, int64(time.Minute))
	}
	full := tl.Samples
	// A valid step reports itself and thins the displayed samples; a
	// step below the sampler resolution clamps up to it.
	if err := json.Unmarshal([]byte(get(t, srv, "/debug/timeline?window=30s&step=10s")), &tl); err != nil {
		t.Fatal(err)
	}
	if tl.StepNanos != int64(10*time.Second) {
		t.Fatalf("step_nanos = %d, want %d", tl.StepNanos, int64(10*time.Second))
	}
	if tl.Samples >= full {
		t.Fatalf("step did not thin samples: %d vs full %d", tl.Samples, full)
	}
	if err := json.Unmarshal([]byte(get(t, srv, "/debug/timeline?step=1ms")), &tl); err != nil {
		t.Fatal(err)
	}
	if tl.StepNanos != int64(time.Second) {
		t.Fatalf("sub-resolution step reported %d ns, want clamp to resolution %d", tl.StepNanos, int64(time.Second))
	}
}

// TestHealthEndpoints covers /debug/health (JSON verdict, probe
// semantics, text rendering) and /debug/events (limit + validation)
// over a private engine, including the 503 readiness flip when a rule
// goes critical.
func TestHealthEndpoints(t *testing.T) {
	reg := metrics.New()
	st := telemetry.NewStore(time.Minute, 60)
	journal := health.NewJournal(64, reg)
	engine := health.New(health.Options{
		Store:    st,
		Registry: reg,
		Journal:  journal,
		Runtimes: func() []*core.Runtime { return nil },
	})
	srv := httptest.NewServer(Handler(Options{Health: engine}))
	defer srv.Close()

	var rep struct {
		Severity string `json:"severity"`
		Live     bool   `json:"live"`
		Ready    bool   `json:"ready"`
	}
	if err := json.Unmarshal([]byte(get(t, srv, "/debug/health")), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Severity != "ok" || !rep.Live || !rep.Ready {
		t.Fatalf("idle verdict = %+v, want ok/live/ready", rep)
	}
	if code, body := getStatus(t, srv, "/debug/health?probe=live"); code != http.StatusOK || !strings.Contains(body, "live=true") {
		t.Fatalf("probe=live: %d %q", code, body)
	}
	if code, _ := getStatus(t, srv, "/debug/health?probe=ready"); code != http.StatusOK {
		t.Fatalf("probe=ready while ok: %d, want 200", code)
	}
	if code, _ := getStatus(t, srv, "/debug/health?probe=bogus"); code != http.StatusBadRequest {
		t.Fatalf("probe=bogus: %d, want 400", code)
	}
	if body := get(t, srv, "/debug/health?format=text"); !strings.Contains(body, "health:") {
		t.Fatalf("text report missing header:\n%s", body)
	}

	// A quarantined-domain gauge in the store flips the default rule
	// pack critical; the readiness probe must fail while liveness
	// holds.
	// No sampler runs, so the test ticks the engine after the edit.
	now := time.Now()
	st.Put("hstreams_domain_quarantined", map[string]string{"domain": "KNC0"}, now, 1)
	engine.Tick(now)
	if code, body := getStatus(t, srv, "/debug/health?probe=ready"); code != http.StatusServiceUnavailable || !strings.Contains(body, "severity=critical") {
		t.Fatalf("probe=ready at critical: %d %q, want 503", code, body)
	}
	if code, _ := getStatus(t, srv, "/debug/health?probe=live"); code != http.StatusOK {
		t.Fatalf("probe=live at critical: %d, want 200", code)
	}

	// /debug/events: the rule transition just journaled is served,
	// ?n limits to the newest entries, bad limits are rejected.
	var events struct {
		Total  uint64         `json:"total"`
		Events []health.Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(get(t, srv, "/debug/events")), &events); err != nil {
		t.Fatal(err)
	}
	if events.Total == 0 || len(events.Events) == 0 {
		t.Fatalf("no journaled events after a rule transition: %+v", events)
	}
	if events.Events[len(events.Events)-1].Kind != health.KindRuleTransition {
		t.Fatalf("newest event = %+v, want rule-transition", events.Events[len(events.Events)-1])
	}
	journal.Record(health.Event{Kind: health.KindWatchdogStall, Stream: "HSW.s0"})
	if err := json.Unmarshal([]byte(get(t, srv, "/debug/events?n=1")), &events); err != nil {
		t.Fatal(err)
	}
	if len(events.Events) != 1 || events.Events[0].Kind != health.KindWatchdogStall {
		t.Fatalf("?n=1 = %+v, want just the newest watchdog-stall", events.Events)
	}
	for _, bad := range []string{"/debug/events?n=abc", "/debug/events?n=0", "/debug/events?n=-3"} {
		if code, body := getStatus(t, srv, bad); code != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400\n%s", bad, code, body)
		}
	}
	if body := get(t, srv, "/debug/events?format=text"); !strings.Contains(body, "events:") || !strings.Contains(body, "watchdog-stall") {
		t.Fatalf("text events missing content:\n%s", body)
	}
}
