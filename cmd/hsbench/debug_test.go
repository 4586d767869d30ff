package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"hstreams/internal/telemetry"
)

// TestDebugGate is the -debug-addr CI gate. It starts hsbench's
// observers as main does for `-fig 3 -debug-addr 127.0.0.1:0`, runs
// the figure, stops the sampler (the end-of-run sample), and checks
// every debug endpoint over the real listener: each answers 200 with
// plausible content, the sampler fed the timeline while the figure
// ran, and /debug/health serves the engine the sampler ticks.
func TestDebugGate(t *testing.T) {
	obs, err := observe(false, false, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer obs.debug.Close()
	fig3()
	obs.sampler.Stop()

	base := "http://" + obs.debug.Addr()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: HTTP %d", path, resp.StatusCode)
		}
		return string(body)
	}
	for _, p := range []struct{ path, want string }{
		{"/", "/debug/critpath"},
		{"/metrics", "hstreams_actions_total"},
		{"/debug/pprof/", "goroutine"},
		{"/debug/trace", `"ph"`},
		{"/debug/streams", `"flight"`},
		{"/debug/critpath", "critical path"},
		{"/debug/critpath?format=json", `"makespan"`},
		{"/debug/timeline", `"window_nanos"`},
		{"/debug/timeline", `"utilization"`},
		{"/debug/timeline?format=text", "timeline:"},
		{"/debug/timeline?window=30s", `"generated_at"`},
		{"/debug/timeline?window=5s&step=1s", `"step_nanos"`},
		{"/debug/health", `"severity"`},
		{"/debug/health?format=text", "health:"},
		{"/debug/health?probe=live", "live=true"},
		{"/debug/events", `"total"`},
		{"/debug/events?format=text", "events:"},
	} {
		if body := get(p.path); !strings.Contains(body, p.want) {
			t.Errorf("%s: body lacks %q", p.path, p.want)
		}
	}

	// The sampler ran from before the figure to its end: the timeline
	// holds its first sample (taken at Start) and its end-of-run one.
	var tl telemetry.Timeline
	if err := json.Unmarshal([]byte(get("/debug/timeline")), &tl); err != nil {
		t.Fatal(err)
	}
	if tl.Samples < 2 {
		t.Errorf("timeline holds %d samples, want the sampler's start and end-of-run samples", tl.Samples)
	}

	// /debug/health serves the engine the sampler ticks, not a default
	// engine of the server's own (which would first tick on a request).
	var rep struct {
		LastTick time.Time `json:"last_tick"`
	}
	if err := json.Unmarshal([]byte(get("/debug/health")), &rep); err != nil {
		t.Fatal(err)
	}
	if want := obs.engine.Report().LastTick; !rep.LastTick.Equal(want) {
		t.Errorf("/debug/health last ticked at %v, hsbench's engine at %v", rep.LastTick, want)
	}
}
