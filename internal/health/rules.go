package health

import (
	"fmt"
	"math"
	"sort"
	"time"

	"hstreams/internal/telemetry"
)

// Severity is a health verdict level.
type Severity int

const (
	// SevOK means within SLO.
	SevOK Severity = iota
	// SevWarn means degraded but serving.
	SevWarn
	// SevCritical means the SLO is violated; a serving front end
	// should fail its readiness probe.
	SevCritical
)

var severityNames = [...]string{"ok", "warn", "critical"}

// String labels the severity.
func (s Severity) String() string {
	if s >= 0 && int(s) < len(severityNames) {
		return severityNames[s]
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// MarshalText renders the severity as its string label.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a severity label (the inverse of MarshalText).
func (s *Severity) UnmarshalText(b []byte) error {
	for i, n := range severityNames {
		if n == string(b) {
			*s = Severity(i)
			return nil
		}
	}
	return fmt.Errorf("health: unknown severity %q", b)
}

// RuleKind selects how a rule reads the telemetry store.
type RuleKind int

const (
	// RuleThreshold compares each matching series' newest in-window
	// value (gauges, or raw counter levels).
	RuleThreshold RuleKind = iota
	// RuleRate compares each matching series' windowed per-second
	// rate (counters).
	RuleRate
	// RuleBurnRate compares the windowed error-budget burn ratio:
	// (rate(Series)/rate(Denominator))/Budget. 1.0 means burning
	// exactly at budget; higher burns faster.
	RuleBurnRate
	// RuleQuantile compares each matching histogram's windowed
	// Quantile, interpolated from bucket-count deltas.
	RuleQuantile
)

var ruleKindNames = [...]string{"threshold", "rate", "burn-rate", "quantile"}

// String labels the rule kind.
func (k RuleKind) String() string {
	if k >= 0 && int(k) < len(ruleKindNames) {
		return ruleKindNames[k]
	}
	return fmt.Sprintf("RuleKind(%d)", int(k))
}

// MarshalText renders the kind as its string label.
func (k RuleKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a rule-kind label (the inverse of MarshalText).
func (k *RuleKind) UnmarshalText(b []byte) error {
	for i, n := range ruleKindNames {
		if n == string(b) {
			*k = RuleKind(i)
			return nil
		}
	}
	return fmt.Errorf("health: unknown rule kind %q", b)
}

// Rule is one declarative SLO rule evaluated against the telemetry
// store on every engine tick.
//
// Threshold convention: a level fires when the rule's worst value
// reaches it — value >= threshold, except that a threshold of exactly
// 0 fires on value > 0 (so the common "any occurrence pages" alert is
// the zero value) and an infinite threshold never fires (disable a
// level with math.Inf(1)). Below inverts the comparison for
// lower-is-worse signals (fires at value <= threshold; disable with
// math.Inf(-1)). Critical is checked before Warn; the overall verdict
// is governed by the worst matching series.
type Rule struct {
	// Name identifies the rule in verdicts, metrics and the journal.
	Name string `json:"name"`
	// Help is the operator-facing description: what firing means and
	// what to do (OPERATIONS.md is generated from these).
	Help string `json:"help,omitempty"`
	// Kind selects the evaluation mode.
	Kind RuleKind `json:"kind"`
	// Series is the metric family to evaluate (for RuleQuantile, the
	// histogram family's own name).
	Series string `json:"series"`
	// Match restricts evaluation to series whose labels contain these
	// pairs (subset match); nil matches every series of the family.
	Match map[string]string `json:"match,omitempty"`
	// Window is the evaluation window; non-positive means the store's
	// full retention window.
	Window time.Duration `json:"window,omitempty"`
	// Quantile is the quantile for RuleQuantile (defaults to 0.99
	// outside (0,1)).
	Quantile float64 `json:"quantile,omitempty"`
	// Denominator is the total-rate family for RuleBurnRate.
	Denominator string `json:"denominator,omitempty"`
	// Budget is the acceptable error ratio for RuleBurnRate (e.g.
	// 0.001 for a 99.9% SLO); non-positive means 1.
	Budget float64 `json:"budget,omitempty"`
	// Warn and Critical are the severity thresholds (see the
	// threshold convention above).
	Warn     float64 `json:"warn"`
	Critical float64 `json:"critical"`
	// Below inverts the comparisons for lower-is-worse signals.
	Below bool `json:"below,omitempty"`
}

// maxOffending bounds the per-verdict offending-series list so one
// firing rule over a wide family cannot balloon the health report;
// the list is sorted worst-first, so what survives is what matters.
const maxOffending = 8

// Verdict is one rule's evaluation result.
type Verdict struct {
	// Rule and Kind identify the rule; Series its metric family.
	Rule   string   `json:"rule"`
	Kind   RuleKind `json:"kind"`
	Series string   `json:"series"`
	// Severity is the rule's current level; Value the worst matching
	// series' value that produced it.
	Severity Severity `json:"severity"`
	Value    float64  `json:"value"`
	// Offending lists the matching series at warn level or above,
	// worst first (at most maxOffending).
	Offending []telemetry.WindowValue `json:"offending,omitempty"`
	// Since is when the rule entered its current severity (stamped by
	// the engine; zero for a bare Eval).
	Since time.Time `json:"since,omitempty"`
	// Help echoes the rule's operator guidance.
	Help string `json:"help,omitempty"`
}

// fires reports whether a value reaches a threshold under the rule's
// direction (see the threshold convention on Rule).
func (r Rule) fires(v, th float64) bool {
	if math.IsNaN(th) || math.IsNaN(v) {
		return false
	}
	if r.Below {
		if math.IsInf(th, -1) {
			return false
		}
		return v <= th
	}
	if math.IsInf(th, 1) {
		return false
	}
	if th == 0 {
		return v > 0
	}
	return v >= th
}

// worse reports whether a is worse than b under the rule's direction.
func (r Rule) worse(a, b float64) bool {
	if r.Below {
		return a < b
	}
	return a > b
}

// Eval evaluates the rule against the store's current window. A rule
// whose query yields no data (family absent, or an empty
// bucket-delta window for quantiles) reports SevOK with no offending
// series — absence of evidence is not an alert; pair with a
// liveness-style Below rule when "no data" itself should page.
func (r Rule) Eval(st *telemetry.Store) Verdict {
	v := Verdict{Rule: r.Name, Kind: r.Kind, Series: r.Series, Help: r.Help}
	if st == nil {
		return v
	}
	var vals []telemetry.WindowValue
	switch r.Kind {
	case RuleThreshold:
		vals = st.LatestOver(r.Series, r.Match, r.Window)
	case RuleRate:
		vals = st.RateOver(r.Series, r.Match, r.Window)
	case RuleQuantile:
		q := r.Quantile
		if q <= 0 || q >= 1 {
			q = 0.99
		}
		vals = st.QuantileOver(r.Series, r.Match, q, r.Window)
	case RuleBurnRate:
		var num, den float64
		for _, wv := range st.RateOver(r.Series, r.Match, r.Window) {
			num += wv.Value
		}
		for _, wv := range st.RateOver(r.Denominator, r.Match, r.Window) {
			den += wv.Value
		}
		budget := r.Budget
		if budget <= 0 {
			budget = 1
		}
		var burn float64
		if den > 0 {
			burn = (num / den) / budget
		}
		vals = []telemetry.WindowValue{{Value: burn}}
	}
	if len(vals) == 0 {
		return v
	}
	v.Value = vals[0].Value
	for _, wv := range vals[1:] {
		if r.worse(wv.Value, v.Value) {
			v.Value = wv.Value
		}
	}
	switch {
	case r.fires(v.Value, r.Critical):
		v.Severity = SevCritical
	case r.fires(v.Value, r.Warn):
		v.Severity = SevWarn
	}
	for _, wv := range vals {
		if r.fires(wv.Value, r.Warn) || r.fires(wv.Value, r.Critical) {
			v.Offending = append(v.Offending, wv)
		}
	}
	sort.Slice(v.Offending, func(i, j int) bool { return r.worse(v.Offending[i].Value, v.Offending[j].Value) })
	if len(v.Offending) > maxOffending {
		v.Offending = v.Offending[:maxOffending]
	}
	return v
}

// DefaultRules is the shipped rule pack — the single source of truth
// for the OPERATIONS.md alert tables (§3 renders exactly these rules;
// edit here, document there). Rates and burn rates self-clear once
// the triggering deltas slide out of the telemetry window; the
// quarantine threshold clears at Fini, when the runtime formally
// releases its domains.
func DefaultRules() []Rule {
	return []Rule{
		{
			Name: "domain-quarantined", Kind: RuleThreshold,
			Series: "hstreams_domain_quarantined",
			Help:   "A domain breaker tripped and its work is re-routed to the host: capacity is degraded for the rest of the run. Page; drain, re-Init without the domain, and chase the breaker-trip journal event.",
		},
		{
			Name: "breaker-trips", Kind: RuleRate,
			Series: "hstreams_breaker_trips_total",
			Help:   "A circuit breaker tripped inside the window. Page; the trip's journal event and the quarantined domain's flight-recorder spans say why.",
		},
		{
			Name: "action-errors", Kind: RuleRate,
			Series: "hstreams_action_errors_total",
			Help:   "Actions are completing with errors. Page; Runtime.Err holds the first error, hstreams_errors_suppressed_total counts the cascade behind it.",
		},
		{
			Name: "retry-rate", Kind: RuleRate,
			Series: "hstreams_retries_total", Critical: math.Inf(1),
			Help: "Transient faults are being retried. Ticket-level: sustained retries cost link bandwidth and foreshadow a breaker trip; check per-domain fault rates.",
		},
		{
			Name: "deadline-exceeded", Kind: RuleRate,
			Series: "hstreams_deadline_exceeded_total", Critical: math.Inf(1),
			Help: "Actions are exceeding their per-action deadline. Ticket-level: deadlines fire on slow links or saturated sinks before work is lost.",
		},
		{
			Name: "error-budget-burn", Kind: RuleBurnRate,
			Series: "hstreams_action_errors_total", Denominator: "hstreams_actions_total",
			Budget: 0.001, Warn: 1, Critical: math.Inf(1),
			Help: "Windowed error-budget burn for a 99.9% action-success SLO; 1 means burning exactly at budget. Ticket-level until sustained.",
		},
		{
			Name: "sched-latency-p99", Kind: RuleQuantile,
			Series: "hstreams_sched_latency_seconds", Quantile: 0.99,
			Warn: 0.05, Critical: math.Inf(1),
			Help: "p99 of ready-to-launch latency: resource contention ahead of execution. Warn at 50ms; in Sim mode the histogram is virtual-clock seconds, so compare trends, not the absolute bound.",
		},
		{
			Name: "tenant-shed", Kind: RuleRate,
			Series: "hstreams_tenant_shed_total", Critical: math.Inf(1),
			Help: "A serving tenant is being load-shed (admission pending-full). Ticket-level: expected under deliberate overload, but sustained shed on one tenant means its weight or max_pending no longer matches its offered load — see the 'tenant shed' playbook in OPERATIONS.md.",
		},
		{
			Name: "tenant-admission-wait-p99", Kind: RuleQuantile,
			Series: "hstreams_tenant_admission_wait_seconds", Quantile: 0.99,
			Warn: 1, Critical: math.Inf(1),
			Help: "p99 time a tenant's admitted requests wait before dispatch: the starvation proxy. Warn at 1s; one tenant warning while others are quiet means its fair-share weight is too low for its load — see the 'tenant starved' playbook in OPERATIONS.md.",
		},
	}
}
