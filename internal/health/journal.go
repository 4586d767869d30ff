package health

import (
	"fmt"
	"sync/atomic"
	"time"

	"hstreams/internal/core"
	"hstreams/internal/metrics"
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
func (k EventKind) String() string {
	if k >= 0 && int(k) < kindCount {
		return kindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// MarshalText renders the kind as its string label, so journal JSON is
// self-describing.
func (k EventKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind label (the inverse of MarshalText).
func (k *EventKind) UnmarshalText(b []byte) error {
	for i, n := range kindNames {
		if n == string(b) {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("health: unknown event kind %q", b)
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

// Journal is a lock-free ring of runtime lifecycle events, built like
// trace.FlightRecorder: writers reserve a monotonic sequence number
// with one atomic add and publish with one atomic pointer store, so
// recording never blocks an executor goroutine; readers snapshot
// without stopping writers. Each recorded kind also counts in the
// hstreams_events_total metric family. All methods are nil-safe.
type Journal struct {
	mask     uint64
	pos      atomic.Uint64
	ring     []atomic.Pointer[Event]
	counters [kindCount]*metrics.Counter
}

// NewJournal builds a journal holding the last capacity events
// (rounded up to a power of two; non-positive means DefJournalCap),
// registering its hstreams_events_total counters on reg (nil falls
// back to a detached registry, keeping the journal functional but
// unexported).
func NewJournal(capacity int, reg *metrics.Registry) *Journal {
	if capacity <= 0 {
		capacity = DefJournalCap
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	if reg == nil {
		reg = metrics.New()
	}
	j := &Journal{mask: uint64(n - 1), ring: make([]atomic.Pointer[Event], n)}
	vec := reg.CounterVec("hstreams_events_total", "Runtime lifecycle events recorded in the health journal, by kind.", "kind")
	for k := 0; k < kindCount; k++ {
		j.counters[k] = vec.With(kindNames[k])
	}
	return j
}

// Record stamps ev with the next sequence number, publishes it, and
// returns the sequence (0 on a nil journal).
func (j *Journal) Record(ev Event) uint64 {
	if j == nil {
		return 0
	}
	seq := j.pos.Add(1)
	ev.Seq = seq
	e := ev
	j.ring[(seq-1)&j.mask].Store(&e)
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
func (j *Journal) Cap() int {
	if j == nil {
		return 0
	}
	return len(j.ring)
}

// Total returns how many events have ever been recorded.
func (j *Journal) Total() uint64 {
	if j == nil {
		return 0
	}
	return j.pos.Load()
}

// Dropped returns how many events have fallen off the ring.
func (j *Journal) Dropped() uint64 {
	t := j.Total()
	if c := uint64(j.Cap()); t > c {
		return t - c
	}
	return 0
}

// Snapshot returns the retained events in sequence order, oldest
// first, without stopping writers. Entries a racing writer overwrote
// mid-snapshot are skipped (their newer versions appear in the next
// snapshot), so a snapshot is always internally consistent: sequence
// numbers strictly increase.
func (j *Journal) Snapshot() []Event {
	if j == nil {
		return nil
	}
	total := j.pos.Load()
	n := total
	if c := uint64(len(j.ring)); n > c {
		n = c
	}
	out := make([]Event, 0, n)
	for seq := total - n + 1; seq <= total; seq++ {
		if p := j.ring[(seq-1)&j.mask].Load(); p != nil && p.Seq == seq {
			out = append(out, *p)
		}
	}
	return out
}
