// Package health is the runtime's health engine: it interprets the
// raw observability signals the lower layers produce — the metrics
// registry, the telemetry time-series store, stream progress counters
// — into a machine-readable verdict.
//
// Three cooperating pieces:
//
//   - An SLO rule engine (rules.go) evaluates declarative rules
//     (threshold / windowed-rate / burn-rate / histogram-quantile)
//     against the telemetry store on every tick, producing typed
//     ok/warn/critical verdicts with the offending series attached.
//     DefaultRules codifies the OPERATIONS.md alert tables.
//   - A stall watchdog (watchdog.go) detects streams with queued
//     actions but no retirement progress across a horizon, and
//     classifies the cause — dep-stall, link saturation,
//     quarantined-domain backlog, or true deadlock — from the
//     launched/pending split, breaker state and link occupancy.
//   - A structured event journal (journal.go) — a lock-free ring of
//     runtime lifecycle events with monotonic sequence numbers,
//     correlated to flight-recorder span ids.
//
// The Engine ties them together: Tick on the telemetry sampler's
// cadence (telemetry.SamplerOptions.OnSample), Report for
// /debug/health and `hsbench -health`, with liveness ("the engine is
// ticking") and readiness ("severity below critical") semantics a
// serving front end can probe directly. Everything the engine derives
// is also exported as hstreams_health_* metric families, so the
// health layer's own behavior is observable through the same pipeline
// it watches.
package health

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"hstreams/internal/core"
	"hstreams/internal/metrics"
	"hstreams/internal/telemetry"
)

// Engine defaults.
const (
	// DefHorizon is the default watchdog stall horizon.
	DefHorizon = 10 * time.Second
	// DefLinkSaturation is the default link-occupancy floor (busy
	// seconds per wall second) above which a stalled stream's cause is
	// attributed to its links.
	DefLinkSaturation = 0.9
	// DefLiveness is how recently the engine must have ticked to
	// report itself live.
	DefLiveness = 5 * time.Second
	// DefMaxStale is the default TickIfStale freshness bound.
	DefMaxStale = time.Second
	// maxReportEvents bounds the recent-events tail in a Report.
	maxReportEvents = 32
)

// Options configures New. The zero value builds the engine its own
// store and journal, over metrics.Default(), core.LiveRuntimes and
// DefaultRules().
type Options struct {
	// Store is the telemetry store rules evaluate against. Nil builds
	// one with the default window; hand it (Engine.Store) to the
	// sampler that feeds it.
	Store *telemetry.Store
	// Registry receives the hstreams_health_* families and is the one
	// a debug server over this engine serves. Nil means
	// metrics.Default().
	Registry *metrics.Registry
	// Journal receives rule transitions and watchdog events (and
	// should also be fed core lifecycle events via Journal.CoreEvent).
	// Nil builds one of DefJournalCap events counting into Registry.
	Journal *Journal
	// Runtimes enumerates the runtimes the watchdog polls. Nil means
	// core.LiveRuntimes.
	Runtimes func() []*core.Runtime
	// Rules is the SLO rule pack. Nil means DefaultRules(); an empty
	// non-nil slice disables rule evaluation.
	Rules []Rule
}

// Engine evaluates the rule pack and the watchdog on every Tick and
// serves the combined verdict. Tick and Report are safe from
// concurrent goroutines (the sampler ticks while HTTP handlers
// report); the journal is lock-free on top of that.
type Engine struct {
	store    *telemetry.Store
	reg      *metrics.Registry
	journal  *Journal
	runtimes func() []*core.Runtime
	rules    []Rule
	horizon  time.Duration // DefHorizon; tests shorten it

	mu           sync.Mutex
	ruleState    map[string]*ruleTrack
	tracks       map[trackKey]*streamTrack
	lastTick     time.Time
	lastVerdicts []Verdict
	lastStalls   []Stall

	status      *metrics.Gauge
	ticks       *metrics.Counter
	stalled     *metrics.Gauge
	transitions *metrics.CounterVec
	stallCount  map[StallCause]*metrics.Counter
}

// ruleTrack is one rule's severity memory between ticks.
type ruleTrack struct {
	sev   Severity
	since time.Time
	gauge *metrics.Gauge
}

// New builds an engine from opts (see Options for the zero-value
// defaults) and registers its metric families. It does not tick by
// itself: hang Engine.Tick off the telemetry sampler
// (SamplerOptions.OnSample) or call it on your own cadence.
func New(opts Options) *Engine {
	e := &Engine{
		store:    opts.Store,
		reg:      opts.Registry,
		journal:  opts.Journal,
		runtimes: opts.Runtimes,
		rules:    opts.Rules,
		horizon:  DefHorizon,
	}
	if e.store == nil {
		e.store = telemetry.NewStore(telemetry.DefWindow, telemetry.DefSlots)
	}
	if e.reg == nil {
		e.reg = metrics.Default()
	}
	if e.journal == nil {
		e.journal = NewJournal(DefJournalCap, e.reg)
	}
	if e.runtimes == nil {
		e.runtimes = core.LiveRuntimes
	}
	if e.rules == nil {
		e.rules = DefaultRules()
	}
	e.tracks = make(map[trackKey]*streamTrack)
	e.status = e.reg.Gauge("hstreams_health_status", "Overall health verdict: 0 ok, 1 warn, 2 critical.")
	e.ticks = e.reg.Counter("hstreams_health_ticks_total", "Health engine evaluation ticks.")
	e.stalled = e.reg.Gauge("hstreams_health_stalled_streams", "Streams the stall watchdog currently considers stalled.")
	e.transitions = e.reg.CounterVec("hstreams_health_rule_transitions_total", "SLO rule severity transitions, by rule and new severity.", "rule", "to")
	ruleGauge := e.reg.GaugeVec("hstreams_health_rule_status", "Per-rule verdict: 0 ok, 1 warn, 2 critical.", "rule")
	e.ruleState = make(map[string]*ruleTrack, len(e.rules))
	for _, r := range e.rules {
		e.ruleState[r.Name] = &ruleTrack{gauge: ruleGauge.With(r.Name)}
	}
	e.stallCount = make(map[StallCause]*metrics.Counter)
	stallVec := e.reg.CounterVec("hstreams_health_watchdog_stalls_total", "Watchdog stall firings (first detection or cause reclassification), by cause.", "cause")
	for c := CauseDepStall; c <= CauseUnknown; c++ {
		e.stallCount[c] = stallVec.With(c.String())
	}
	return e
}

// Journal returns the engine's event journal.
func (e *Engine) Journal() *Journal { return e.journal }

// Store returns the telemetry store the engine's rules read.
func (e *Engine) Store() *telemetry.Store { return e.store }

// Registry returns the registry the engine exports into.
func (e *Engine) Registry() *metrics.Registry { return e.reg }

// Runtimes returns the runtimes the watchdog polls.
func (e *Engine) Runtimes() []*core.Runtime { return e.runtimes() }

// Rules returns the engine's rule pack (the slice is shared; do not
// mutate).
func (e *Engine) Rules() []Rule { return e.rules }

// Tick evaluates every rule and runs one watchdog pass at the given
// time, journaling severity transitions and updating the
// hstreams_health_* gauges. Designed to hang off the telemetry
// sampler (SamplerOptions.OnSample) so verdicts ride the sampling
// cadence; the per-tick cost is a handful of windowed store queries
// plus one Status snapshot per live runtime, which fits inside the
// 5% telemetry overhead budget (BenchmarkTelemetryOverhead, run by
// make overhead, runs the full default pack in its measured arm).
func (e *Engine) Tick(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	overall := SevOK
	verdicts := make([]Verdict, 0, len(e.rules))
	for _, r := range e.rules {
		v := r.Eval(e.store)
		tr := e.ruleState[r.Name]
		if v.Severity != tr.sev {
			e.journal.Record(Event{
				When: now, Kind: KindRuleTransition, Severity: v.Severity, Rule: r.Name,
				Detail: fmt.Sprintf("%s -> %s (value %.6g)", tr.sev, v.Severity, v.Value),
			})
			e.transitions.With(r.Name, v.Severity.String()).Inc()
			tr.sev, tr.since = v.Severity, now
			tr.gauge.Set(int64(v.Severity))
		}
		v.Since = tr.since
		if v.Severity > overall {
			overall = v.Severity
		}
		verdicts = append(verdicts, v)
	}
	stalls := e.tickWatchdog(now)
	for _, s := range stalls {
		if s.Severity > overall {
			overall = s.Severity
		}
	}
	e.stalled.Set(int64(len(stalls)))
	e.status.Set(int64(overall))
	e.ticks.Inc()
	e.lastTick, e.lastVerdicts, e.lastStalls = now, verdicts, stalls
}

// TickIfStale ticks only when the last tick is older than the
// MaxStale bound, and reports whether it ticked. The debug server's
// handlers call it so a process without a running sampler still
// serves fresh verdicts, without doubling evaluation work when the
// sampler drives the cadence.
func (e *Engine) TickIfStale(now time.Time) bool {
	e.mu.Lock()
	stale := e.lastTick.IsZero() || now.Sub(e.lastTick) >= DefMaxStale
	e.mu.Unlock()
	if stale {
		e.Tick(now)
	}
	return stale
}

// Report is the engine's combined verdict — what /debug/health serves
// and `hsbench -health` prints.
type Report struct {
	// GeneratedAt is when the report was assembled; LastTick when the
	// engine last evaluated.
	GeneratedAt time.Time `json:"generated_at"`
	LastTick    time.Time `json:"last_tick"`
	// Severity is the overall verdict: the worst rule or stall level.
	Severity Severity `json:"severity"`
	// Live reports the engine ticked within the liveness window;
	// Ready that it is live AND severity is below critical — the
	// liveness/readiness split a serving front end probes.
	Live  bool `json:"live"`
	Ready bool `json:"ready"`
	// Rules lists every rule's current verdict; Stalls the watchdog's
	// currently-stalled streams.
	Rules  []Verdict `json:"rules"`
	Stalls []Stall   `json:"stalls,omitempty"`
	// Events is the tail of the journal (newest last, at most
	// maxReportEvents); EventsTotal and EventsDropped the journal's
	// lifetime accounting.
	Events        []Event `json:"events,omitempty"`
	EventsTotal   uint64  `json:"events_total"`
	EventsDropped uint64  `json:"events_dropped,omitempty"`
}

// ReportAt assembles a report against the given time (deterministic
// for tests; Report passes the wall clock).
func (e *Engine) ReportAt(now time.Time) *Report {
	e.mu.Lock()
	rep := &Report{
		GeneratedAt: now,
		LastTick:    e.lastTick,
		Rules:       append([]Verdict(nil), e.lastVerdicts...),
		Stalls:      append([]Stall(nil), e.lastStalls...),
	}
	e.mu.Unlock()
	for _, v := range rep.Rules {
		if v.Severity > rep.Severity {
			rep.Severity = v.Severity
		}
	}
	for _, s := range rep.Stalls {
		if s.Severity > rep.Severity {
			rep.Severity = s.Severity
		}
	}
	rep.Live = !rep.LastTick.IsZero() && now.Sub(rep.LastTick) <= DefLiveness
	rep.Ready = rep.Live && rep.Severity < SevCritical
	ev := e.journal.Snapshot()
	if len(ev) > maxReportEvents {
		ev = ev[len(ev)-maxReportEvents:]
	}
	rep.Events = ev
	rep.EventsTotal = e.journal.Total()
	rep.EventsDropped = e.journal.Dropped()
	return rep
}

// Report assembles a report against the wall clock.
func (e *Engine) Report() *Report { return e.ReportAt(time.Now()) }

// Format renders the report as the text form served by
// /debug/health?format=text and printed by `hsbench -health`.
func (r *Report) Format() string {
	var sb strings.Builder
	state := "not live"
	if r.Live {
		state = "live"
	}
	ready := "not ready"
	if r.Ready {
		ready = "ready"
	}
	fmt.Fprintf(&sb, "health: %s (%s, %s)\n", r.Severity, state, ready)
	if len(r.Rules) > 0 {
		sb.WriteString("rules:\n")
		for _, v := range r.Rules {
			fmt.Fprintf(&sb, "  %-8s %-22s %-10s value %.6g", strings.ToUpper(v.Severity.String()), v.Rule, v.Kind, v.Value)
			if len(v.Offending) > 0 {
				parts := make([]string, 0, len(v.Offending))
				for _, wv := range v.Offending {
					parts = append(parts, fmt.Sprintf("%s=%.6g", labelText(wv.Labels), wv.Value))
				}
				fmt.Fprintf(&sb, "  [%s]", strings.Join(parts, " "))
			}
			sb.WriteByte('\n')
		}
	}
	if len(r.Stalls) > 0 {
		sb.WriteString("stalls:\n")
		for _, s := range r.Stalls {
			fmt.Fprintf(&sb, "  %-12s %s (%s)  depth %d, stalled %s, oldest span %d\n",
				s.Stream, s.Cause, s.Severity, s.Depth, s.Stalled.Round(time.Millisecond), s.OldestAction)
		}
	}
	if len(r.Events) > 0 {
		fmt.Fprintf(&sb, "events (last %d of %d", len(r.Events), r.EventsTotal)
		if r.EventsDropped > 0 {
			fmt.Fprintf(&sb, ", %d dropped", r.EventsDropped)
		}
		sb.WriteString("):\n")
		for _, ev := range r.Events {
			sb.WriteString("  " + ev.Format() + "\n")
		}
	}
	return sb.String()
}

// labelText renders a label map compactly for text reports.
func labelText(labels map[string]string) string {
	if len(labels) == 0 {
		return "(total)"
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+labels[k])
	}
	return "{" + strings.Join(parts, ",") + "}"
}
