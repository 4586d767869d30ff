// Package debugserver is the live observability endpoint: one opt-in
// HTTP server (hsbench/hsserve -debug-addr) exposing the process's
// telemetry while runs are in flight — Prometheus metrics, Go pprof
// profiles, the causal-span flight recorder as a Chrome trace, stream
// queue snapshots, the critical-path analysis of the latest run, and
// the health engine's verdict and event journal (/debug/health,
// /debug/events) with liveness/readiness probe semantics.
//
// Everything served here is read-only and safe to hit while the
// runtime works: the metrics registry and flight recorder are
// lock-free, and runtime status snapshots take the runtime lock only
// briefly.
package debugserver

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"hstreams/internal/core"
	"hstreams/internal/health"
	"hstreams/internal/metrics"
	"hstreams/internal/serve"
	"hstreams/internal/telemetry"
	"hstreams/internal/trace"
)

// Options configures Start. The server serves what the health engine
// watches: its registry on /metrics, its runtimes on /debug/streams
// and its telemetry store on /debug/timeline.
type Options struct {
	// Health serves /debug/health and /debug/events, and supplies
	// the registry, runtimes and store above. Required.
	Health *health.Engine
	// Flight serves /debug/trace and /debug/critpath. Nil serves an
	// empty recorder.
	Flight *trace.FlightRecorder
	// Tenants, when set, serves /debug/tenants with the serving front
	// end's per-tenant status (serve.Server.Tenants). Nil processes
	// (the batch CLIs) answer 404 there.
	Tenants func() []serve.TenantStatus
}

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so a client that never finishes them cannot hold a
// connection open for good.
const readHeaderTimeout = 10 * time.Second

// Server is a running debug server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Start binds addr (e.g. "127.0.0.1:6060"; port 0 picks a free port)
// and serves the debug endpoints in a background goroutine until
// Close.
func Start(addr string, opt Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: newMux(opt), ReadHeaderTimeout: readHeaderTimeout}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address, useful when Start was given port 0.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }

// Handler returns the debug mux without binding a listener (tests).
func Handler(opt Options) http.Handler {
	return newMux(opt)
}

func newMux(opt Options) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", indexHandler)
	mux.Handle("/metrics", opt.Health.Registry())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/trace", traceHandler(opt.Flight))
	mux.HandleFunc("/debug/streams", streamsHandler(opt.Health.Runtimes, opt.Flight))
	mux.HandleFunc("/debug/critpath", critpathHandler(opt.Flight))
	mux.HandleFunc("/debug/timeline", timelineHandler(opt.Health.Store(), opt.Health.Registry()))
	mux.HandleFunc("/debug/health", healthHandler(opt.Health))
	mux.HandleFunc("/debug/events", eventsHandler(opt.Health.Journal()))
	if opt.Tenants != nil {
		mux.HandleFunc("/debug/tenants", tenantsHandler(opt.Tenants))
	}
	return mux
}

// tenantsHandler serves the serving layer's per-tenant snapshot:
// JSON by default, ?format=text for a fixed-width table.
func tenantsHandler(tenants func() []serve.TenantStatus) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ts := tenants()
		reply(w, wantText(r), ts, func(w io.Writer) {
			fmt.Fprintf(w, "%-16s %6s %7s %7s %8s %8s %9s %12s\n",
				"tenant", "weight", "pending", "inflight", "actions", "streams", "buffers", "buf-bytes")
			for _, t := range ts {
				fmt.Fprintf(w, "%-16s %6d %7d %7d %8d %8d %9d %12d\n",
					t.Name, t.Quotas.Weight, t.Pending, t.Inflight,
					t.Actions, len(t.Streams), t.Buffers, t.BufferBytes)
			}
		})
	}
}

// wantText reports whether the request asks for ?format=text.
func wantText(r *http.Request) bool { return r.URL.Query().Get("format") == "text" }

// reply writes one endpoint response: text/plain rendered by text
// when asText, otherwise v as indented JSON.
func reply(w http.ResponseWriter, asText bool, v any, text func(io.Writer)) {
	if asText {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		text(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func indexHandler(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `hstreams debug server

  /metrics              Prometheus exposition
  /debug/pprof/         Go runtime profiles
  /debug/trace          flight recorder as Chrome trace JSON (load in Perfetto;
                        ?run=N for one run, default all retained spans)
  /debug/streams        live stream queues + link traffic as JSON
  /debug/critpath       critical-path report of the latest run
                        (?format=json for the full report, ?run=N to pick a run)
  /debug/timeline       rolling-window telemetry: rates, quantiles, utilization,
                        queues, links (JSON; ?format=text to render,
                        ?window=10s to narrow the window,
                        ?step=1s to thin the sample series)
  /debug/health         health engine verdict: SLO rules, stalled streams,
                        recent events (JSON; ?format=text to render;
                        ?probe=live|ready for 200/503 probe semantics)
  /debug/events         structured event journal (JSON; ?format=text to
                        render, ?n=50 to limit)
  /debug/tenants        serving front end tenant status: quotas, queues,
                        fair-share pass (JSON; ?format=text to render;
                        404 unless the process runs a serving layer)
`)
}

// parseRun reads an optional ?run=N selector; 0 means "latest". N must
// be a whole positive decimal integer: "12abc" or "7 9" is an error,
// not run 12 or 7.
func parseRun(r *http.Request) (uint64, error) {
	q := r.URL.Query().Get("run")
	if q == "" {
		return 0, nil
	}
	run, err := strconv.ParseUint(q, 10, 64)
	if err != nil || run == 0 {
		return 0, fmt.Errorf("bad run %q", q)
	}
	return run, nil
}

func traceHandler(f *trace.FlightRecorder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		run, err := parseRun(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		spans := f.Snapshot()
		if run != 0 {
			spans = trace.FilterRun(spans, run)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="hstreams-trace.json"`)
		_ = trace.WriteChromeSpans(w, spans)
	}
}

// streamsPayload is the /debug/streams response document.
type streamsPayload struct {
	Now      time.Time            `json:"now"`
	Runtimes []core.RuntimeStatus `json:"runtimes"`
	Flight   flightPayload        `json:"flight"`
}

type flightPayload struct {
	Cap     int    `json:"cap"`
	Total   uint64 `json:"total"`
	Dropped uint64 `json:"dropped"`
}

func streamsHandler(runtimes func() []*core.Runtime, f *trace.FlightRecorder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		doc := streamsPayload{
			Now:    time.Now(),
			Flight: flightPayload{Cap: f.Cap(), Total: f.Total(), Dropped: f.Dropped()},
		}
		for _, rt := range runtimes() {
			doc.Runtimes = append(doc.Runtimes, rt.Status())
		}
		reply(w, false, doc, nil)
	}
}

func critpathHandler(f *trace.FlightRecorder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		run, err := parseRun(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		spans := f.Snapshot()
		if run != 0 {
			spans = trace.FilterRun(spans, run)
		} else {
			spans = trace.LatestRun(spans)
		}
		rep := trace.Analyze(spans)
		reply(w, r.URL.Query().Get("format") != "json", rep, func(w io.Writer) { fmt.Fprint(w, rep.Format()) })
	}
}

// timelineHandler serves the rolling-window telemetry views derived
// from the process's sampler store: JSON by default, the text
// rendering with ?format=text, an optional ?window=<duration> to
// narrow the derivation window below the store's full retention
// (wider windows clamp to the retention — asking for more history
// than the ring holds is not an error), and an optional
// ?step=<duration> to thin the returned sample series (clamped
// between the sampler resolution and the effective window; deltas
// and quantiles stay full-resolution either way).
func timelineHandler(st *telemetry.Store, reg *metrics.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		window := time.Duration(0)
		if q := r.URL.Query().Get("window"); q != "" {
			d, err := time.ParseDuration(q)
			if err != nil || d <= 0 {
				http.Error(w, fmt.Sprintf("bad window %q", q), http.StatusBadRequest)
				return
			}
			window = d
		}
		if max := st.Window(); window <= 0 || window > max {
			window = max
		}
		step := time.Duration(0)
		if q := r.URL.Query().Get("step"); q != "" {
			d, err := time.ParseDuration(q)
			if err != nil || d <= 0 {
				http.Error(w, fmt.Sprintf("bad step %q", q), http.StatusBadRequest)
				return
			}
			step = d
			if res := st.Resolution(); step < res {
				step = res
			}
			if step > window {
				step = window
			}
		}
		tl := telemetry.BuildStep(st, reg, window, step)
		reply(w, wantText(r), tl, func(w io.Writer) { fmt.Fprint(w, tl.Format()) })
	}
}

// healthHandler serves the health engine's combined verdict: JSON by
// default, ?format=text for the rendered report, and
// ?probe=live|ready for Kubernetes-style probe semantics (200 when
// the probe passes, 503 when it fails). Each request re-ticks the
// engine only when the last tick is stale, so a process whose sampler
// drives the cadence does not evaluate twice.
func healthHandler(e *health.Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		now := time.Now()
		e.TickIfStale(now)
		rep := e.ReportAt(now)
		if probe := r.URL.Query().Get("probe"); probe != "" {
			var pass bool
			switch probe {
			case "live":
				pass = rep.Live
			case "ready":
				pass = rep.Ready
			default:
				http.Error(w, fmt.Sprintf("bad probe %q (want live or ready)", probe), http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if !pass {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			fmt.Fprintf(w, "%s=%v severity=%s\n", probe, pass, rep.Severity)
			return
		}
		reply(w, wantText(r), rep, func(w io.Writer) { fmt.Fprint(w, rep.Format()) })
	}
}

// eventsPayload is the /debug/events response document.
type eventsPayload struct {
	Cap     int            `json:"cap"`
	Total   uint64         `json:"total"`
	Dropped uint64         `json:"dropped"`
	Events  []health.Event `json:"events"`
}

// eventsHandler serves the structured event journal: JSON by default,
// ?format=text for one line per event, ?n=50 to limit to the newest
// n retained events.
func eventsHandler(j *health.Journal) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		events := j.Snapshot()
		if q := r.URL.Query().Get("n"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n < 1 {
				http.Error(w, fmt.Sprintf("bad n %q", q), http.StatusBadRequest)
				return
			}
			if n < len(events) {
				events = events[len(events)-n:]
			}
		}
		doc := eventsPayload{Cap: j.Cap(), Total: j.Total(), Dropped: j.Dropped(), Events: events}
		reply(w, wantText(r), doc, func(w io.Writer) {
			fmt.Fprintf(w, "events: %d retained of %d recorded (%d dropped, cap %d)\n",
				len(events), doc.Total, doc.Dropped, doc.Cap)
			for _, ev := range events {
				fmt.Fprintln(w, ev.Format())
			}
		})
	}
}
