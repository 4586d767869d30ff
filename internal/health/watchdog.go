package health

import (
	"fmt"
	"time"

	"hstreams/internal/core"
)

// StallCause classifies why a stream stopped retiring work.
type StallCause int

const (
	// CauseDepStall: nothing launched, work pending — the stream is
	// blocked in the dependence graph on another stream's progress
	// (or a host-side event the program never signals).
	CauseDepStall StallCause = iota
	// CauseLinkSaturation: launched work is not finishing while the
	// domain's fabric links run at or above the saturation floor —
	// the regime where MIC-style platforms degrade first.
	CauseLinkSaturation
	// CauseQuarantine: the sink domain is quarantined; the backlog
	// drains through host re-routing at host speed.
	CauseQuarantine
	// CauseDeadlock: every busy stream of the runtime is
	// dependence-blocked with nothing launched anywhere — no executor
	// progress is possible. Critical: only program or runtime
	// intervention resolves it.
	CauseDeadlock
	// CauseUnknown: launched work is not finishing and no known
	// mechanism explains it (a wedged kernel, an unresponsive sink).
	CauseUnknown
)

var causeNames = [...]string{"dep-stall", "link-saturation", "quarantine-backlog", "deadlock", "unknown"}

// String labels the stall cause.
func (c StallCause) String() string { return label(causeNames[:], "StallCause", c) }

// MarshalText renders the cause as its string label.
func (c StallCause) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText parses a cause label (the inverse of MarshalText).
func (c *StallCause) UnmarshalText(b []byte) error {
	return parseLabel(causeNames[:], "stall cause", c, b)
}

// Stall is one stream the watchdog currently considers stalled:
// queued actions but no retirement progress across the horizon.
type Stall struct {
	// Run and Stream identify the stalled stream; Domain its sink.
	Run    uint64 `json:"run"`
	Stream string `json:"stream"`
	Domain string `json:"domain"`
	// Cause is the watchdog's classification, Severity its weight
	// (deadlock is critical, everything else warns).
	Cause    StallCause `json:"cause"`
	Severity Severity   `json:"severity"`
	// Depth is the stuck queue depth; Stalled how long the stream has
	// gone without retiring an action.
	Depth   int64         `json:"depth"`
	Stalled time.Duration `json:"stalled"`
	// OldestAction is the flight-recorder span id of the oldest
	// incomplete action — the span to chase.
	OldestAction uint64 `json:"oldest_action,omitempty"`
}

// classify maps one stalled stream's status to a cause.
// deadlocked reports that every busy stream of the runtime is
// dependence-blocked with nothing launched; linkSaturated that the
// stream's domain links run at or above the saturation floor.
// Precedence: quarantine explains the backlog outright; a
// dependence-blocked stream is a deadlock only when the whole runtime
// is; launched-but-stuck work is the link's fault only when the link
// is provably busy.
func classify(p core.StreamStatus, deadlocked, linkSaturated bool) StallCause {
	switch {
	case p.Quarantined:
		return CauseQuarantine
	case p.Launched == 0 && deadlocked:
		return CauseDeadlock
	case p.Launched == 0:
		return CauseDepStall
	case linkSaturated:
		return CauseLinkSaturation
	default:
		return CauseUnknown
	}
}

// causeSeverity weighs a stall cause: deadlock is critical (no
// progress is possible anywhere), everything else warns.
func causeSeverity(c StallCause) Severity {
	if c == CauseDeadlock {
		return SevCritical
	}
	return SevWarn
}

// trackKey identifies one stream across watchdog ticks.
type trackKey struct {
	run    uint64
	stream string
}

// streamTrack is the watchdog's per-stream memory between ticks.
type streamTrack struct {
	retired uint64    // last observed retirement count
	since   time.Time // last time progress was observed
	stalled bool
	cause   StallCause
	seen    bool
}

// tickWatchdog runs one watchdog pass over every live runtime.
// Caller holds e.mu.
func (e *Engine) tickWatchdog(now time.Time) []Stall {
	for _, tr := range e.tracks {
		tr.seen = false
	}
	var stalls []Stall
	for _, rt := range e.runtimes() {
		st := rt.Status()

		// Pass 1: update per-stream progress memory and collect stall
		// candidates past the horizon. busy/busyBlocked feed the
		// deadlock test: only when EVERY busy stream is
		// dependence-blocked can nothing ever finish.
		type cand struct {
			p  core.StreamStatus
			tr *streamTrack
		}
		var cands []cand
		busy, busyBlocked := 0, 0
		for _, p := range st.Streams {
			k := trackKey{st.Run, p.Name}
			tr := e.tracks[k]
			if tr == nil {
				tr = &streamTrack{retired: p.Retired, since: now}
				e.tracks[k] = tr
			}
			tr.seen = true
			if p.Depth == 0 || p.Retired != tr.retired {
				tr.retired = p.Retired
				tr.since = now
				if tr.stalled {
					tr.stalled = false
					e.journal.Record(Event{
						When: now, Kind: KindWatchdogClear,
						Stream: p.Name, Domain: p.Domain, Cause: tr.cause.String(),
					})
				}
				continue
			}
			busy++
			if p.Launched == 0 {
				busyBlocked++
			}
			if now.Sub(tr.since) < e.horizon {
				continue
			}
			cands = append(cands, cand{p, tr})
		}
		deadlocked := busy > 0 && busyBlocked == busy

		// Pass 2: classify, journal transitions, report.
		for _, c := range cands {
			cause := classify(c.p, deadlocked, e.linkSaturated(c.p.Domain))
			sev := causeSeverity(cause)
			if !c.tr.stalled || c.tr.cause != cause {
				e.journal.Record(Event{
					When: now, Kind: KindWatchdogStall, Severity: sev,
					Stream: c.p.Name, Domain: c.p.Domain,
					Cause: cause.String(), Span: c.p.OldestAction,
					Detail: fmt.Sprintf("no retirement for %v, depth %d", now.Sub(c.tr.since).Round(time.Millisecond), c.p.Depth),
				})
				e.stallCount[cause].Inc()
			}
			c.tr.stalled, c.tr.cause = true, cause
			stalls = append(stalls, Stall{
				Run: st.Run, Stream: c.p.Name, Domain: c.p.Domain,
				Cause: cause, Severity: sev,
				Depth: int64(c.p.Depth), Stalled: now.Sub(c.tr.since),
				OldestAction: c.p.OldestAction,
			})
		}
	}
	// Forget streams that vanished (destroyed, or their runtime
	// finalized) so the track map cannot grow without bound.
	for k, tr := range e.tracks {
		if !tr.seen {
			delete(e.tracks, k)
		}
	}
	return stalls
}

// linkSaturated reports whether any fabric link direction touching the
// domain runs at or above the engine's saturation floor, measured as
// the windowed occupancy rate (busy-seconds per wall-second) over the
// watchdog horizon.
func (e *Engine) linkSaturated(domain string) bool {
	for _, match := range []map[string]string{{"dst": domain}, {"src": domain}} {
		for _, wv := range e.store.RateOver("hstreams_link_occupancy_seconds_sum", match, e.horizon) {
			if wv.Value >= DefLinkSaturation {
				return true
			}
		}
	}
	return false
}
