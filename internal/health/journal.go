package health

import (
	"fmt"
	"time"

	"hstreams/internal/core"
	"hstreams/internal/metrics"
	"hstreams/internal/trace"
)

// EventKind classifies a journal entry.
type EventKind int

const (
	// KindBreakerTrip is a domain circuit-breaker trip.
	KindBreakerTrip EventKind = iota
	// KindQuarantineFlush is a quarantined domain's card-dirty flush
	// completing (Detail carries the flush error when data was lost).
	KindQuarantineFlush
	// KindQuarantineCleared is a quarantine formally ending at Fini.
	KindQuarantineCleared
	// KindRetriesExhausted is an action failing after its full retry
	// budget.
	KindRetriesExhausted
	// KindDeadlineHit is an action exceeding its per-action deadline.
	KindDeadlineHit
	// KindRuleTransition is an SLO rule verdict changing severity.
	KindRuleTransition
	// KindWatchdogStall is the stall watchdog declaring a stream
	// stalled (or reclassifying its cause).
	KindWatchdogStall
	// KindWatchdogClear is a previously-stalled stream making progress
	// again.
	KindWatchdogClear

	kindCount = int(KindWatchdogClear) + 1
)

var kindNames = [kindCount]string{
	"breaker-trip",
	"quarantine-flush",
	"quarantine-cleared",
	"retries-exhausted",
	"deadline-hit",
	"rule-transition",
	"watchdog-stall",
	"watchdog-clear",
}

// String labels the event kind.
func (k EventKind) String() string { return label(kindNames[:], "EventKind", k) }

// MarshalText renders the kind as its string label, so journal JSON is
// self-describing.
func (k EventKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind label (the inverse of MarshalText).
func (k *EventKind) UnmarshalText(b []byte) error {
	return parseLabel(kindNames[:], "event kind", k, b)
}

// Event is one journal entry. Seq is a process-monotonic sequence
// number assigned at Record (1-based; gaps never occur, but old
// entries fall off the ring). Span, when nonzero, is the
// flight-recorder span id (trace.Span.ID) of the action behind the
// event, correlating the journal to causal traces the way histogram
// exemplars do.
type Event struct {
	Seq      uint64    `json:"seq"`
	When     time.Time `json:"when"`
	Kind     EventKind `json:"kind"`
	Severity Severity  `json:"severity,omitempty"`
	Domain   string    `json:"domain,omitempty"`
	Stream   string    `json:"stream,omitempty"`
	Rule     string    `json:"rule,omitempty"`
	Cause    string    `json:"cause,omitempty"`
	Span     uint64    `json:"span,omitempty"`
	Detail   string    `json:"detail,omitempty"`
}

// DefJournalCap is the default journal ring capacity.
const DefJournalCap = 1024

// Journal is a lock-free ring of runtime lifecycle events: it runs on
// the flight recorder's ring (trace.Ring), lap rule included, so
// recording never blocks an executor goroutine and readers never stop
// writers. Each recorded kind also counts in the hstreams_events_total
// metric family. All methods are nil-safe.
type Journal struct {
	ring     *trace.Ring[Event]
	counters [kindCount]*metrics.Counter
}

// NewJournal builds a journal holding the last capacity events
// (rounded up to a power of two; non-positive means DefJournalCap),
// registering its hstreams_events_total counters on reg (nil falls
// back to a detached registry, keeping the journal functional but
// unexported).
func NewJournal(capacity int, reg *metrics.Registry) *Journal {
	if reg == nil {
		reg = metrics.New()
	}
	j := &Journal{ring: trace.NewRing(capacity, DefJournalCap, func(e *Event) *uint64 { return &e.Seq })}
	vec := reg.CounterVec("hstreams_events_total", "Runtime lifecycle events recorded in the health journal, by kind.", "kind")
	for k := 0; k < kindCount; k++ {
		j.counters[k] = vec.With(kindNames[k])
	}
	return j
}

// rg returns the journal's ring, nil for a nil journal.
func (j *Journal) rg() *trace.Ring[Event] {
	if j == nil {
		return nil
	}
	return j.ring
}

// Record stamps ev with the next sequence number, publishes it, and
// returns the sequence (0 on a nil journal).
func (j *Journal) Record(ev Event) uint64 {
	if j == nil {
		return 0
	}
	seq := j.ring.Publish(&ev)
	if k := int(ev.Kind); k >= 0 && k < kindCount {
		j.counters[k].Inc()
	}
	return seq
}

// CoreEvent adapts a core.RuntimeEvent into a journal entry — the
// function to install as core.Config.OnEvent. Severity follows the
// default rule pack: a trip is critical (the domain is gone for the run), terminal
// per-action failures are warnings, a clean flush/clear is ok.
func (j *Journal) CoreEvent(ev core.RuntimeEvent) {
	e := Event{
		When:   time.Now(),
		Domain: ev.Domain,
		Stream: ev.Stream,
		Span:   ev.Action,
		Detail: ev.Err,
	}
	switch ev.Kind {
	case core.EvBreakerTrip:
		e.Kind, e.Severity = KindBreakerTrip, SevCritical
	case core.EvQuarantineFlush:
		e.Kind, e.Severity = KindQuarantineFlush, SevWarn
		if ev.Err != "" {
			e.Severity = SevCritical
		}
	case core.EvQuarantineCleared:
		e.Kind = KindQuarantineCleared
	case core.EvRetriesExhausted:
		e.Kind, e.Severity = KindRetriesExhausted, SevWarn
	case core.EvDeadlineHit:
		e.Kind, e.Severity = KindDeadlineHit, SevWarn
	default:
		return
	}
	j.Record(e)
}

// Format renders the event as one text line (no trailing newline) —
// the form /debug/events?format=text and the health report share.
func (ev Event) Format() string {
	s := fmt.Sprintf("#%-5d %s %s", ev.Seq, ev.When.Format("15:04:05.000"), ev.Kind)
	for _, part := range []string{ev.Rule, ev.Domain, ev.Stream, ev.Cause} {
		if part != "" {
			s += " " + part
		}
	}
	if ev.Span != 0 {
		s += fmt.Sprintf(" span=%d", ev.Span)
	}
	if ev.Detail != "" {
		s += ": " + ev.Detail
	}
	return s
}

// Cap returns the ring capacity.
func (j *Journal) Cap() int { return j.rg().Cap() }

// Total returns how many events have ever been recorded.
func (j *Journal) Total() uint64 { return j.rg().Total() }

// Dropped returns how many events have fallen off the ring.
func (j *Journal) Dropped() uint64 { return j.rg().Dropped() }

// Snapshot returns the retained events, oldest first, without
// stopping writers; sequence numbers strictly increase.
func (j *Journal) Snapshot() []Event {
	return trace.Collect(j.rg(), func(out, e *Event) { *out = *e })
}
