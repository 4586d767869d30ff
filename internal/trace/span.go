package trace

import (
	"sync/atomic"
	"time"
)

// DepKind classifies a causal in-edge of a span — why one action had
// to wait for another under the FIFO-semantic rules (paper §II).
type DepKind uint8

const (
	// DepFIFO is a stream program-order edge forced by an operand
	// hazard (RAW/WAR/WAW with at least one writer).
	DepFIFO DepKind = iota
	// DepSync is an edge introduced by a synchronization marker,
	// which orders against every earlier and later action.
	DepSync
	// DepEvent is an explicit cross-stream event-wait edge
	// (EnqueueEventWait / EnqueueComputeDeps).
	DepEvent
)

// String labels the dependence kind for trace output.
func (k DepKind) String() string {
	switch k {
	case DepFIFO:
		return "fifo"
	case DepSync:
		return "sync"
	case DepEvent:
		return "event"
	default:
		return "dep"
	}
}

// Dep is one causal in-edge: the span with that ID had to finish
// before the owning span could become ready.
type Dep struct {
	ID  uint64  `json:"id"`
	Why DepKind `json:"why"`
}

// Span is one completed action with its full causal context: the four
// phase timestamps of the action state machine
// (enqueue → ready → launch → finish) and the dependence edges that
// gated it. It is the only per-action record the runtime keeps: the
// Launch→Finish interval feeds the schedule statistics (trace.go), and
// a run's spans together reconstruct the executed action DAG, which is
// what critical-path analysis (critpath.go), checkpoint/replay and
// dependency-arrow rendering (WriteChromeSpans) consume.
type Span struct {
	ID     uint64 `json:"id"`
	Run    uint64 `json:"run"` // runtime instance that produced it
	Kind   Kind   `json:"kind"`
	Stream string `json:"stream"`
	Domain string `json:"domain"`
	Label  string `json:"label,omitempty"`
	// Src/Dst name the link direction for transfers (empty for
	// compute/sync and for optimized-away host-as-target transfers).
	Src   string  `json:"src,omitempty"`
	Dst   string  `json:"dst,omitempty"`
	Bytes int64   `json:"bytes,omitempty"`
	Flops float64 `json:"flops,omitempty"`
	Err   bool    `json:"err,omitempty"`

	// Phase timestamps on the runtime clock (virtual in Sim mode):
	// Enqueue ≤ Ready ≤ Launch ≤ Finish.
	Enqueue time.Duration `json:"enqueue"`
	Ready   time.Duration `json:"ready"`
	Launch  time.Duration `json:"launch"`
	Finish  time.Duration `json:"finish"`

	// Resilience phases (Real mode): how many times the scheduler
	// re-attempted the action after transient failures, the total
	// backoff it slept between attempts (contained in Launch→Finish),
	// whether it exhausted its per-action deadline, and whether it was
	// re-routed to the host by a quarantined domain's breaker.
	Retries     int           `json:"retries,omitempty"`
	RetryWait   time.Duration `json:"retry_wait,omitempty"`
	DeadlineHit bool          `json:"deadline_hit,omitempty"`
	Rerouted    bool          `json:"rerouted,omitempty"`

	// Cost mirrors the platform cost descriptor the action was
	// enqueued with (kernel id, problem size, bytes, fixed overhead) —
	// enough for checkpoint/replay to re-enqueue the action with
	// identical Sim timing. Flops above is the cost's flop count.
	CostKernel int           `json:"cost_kernel,omitempty"`
	CostN      int           `json:"cost_n,omitempty"`
	CostBytes  float64       `json:"cost_bytes,omitempty"`
	CostExtra  time.Duration `json:"cost_extra,omitempty"`

	Deps []Dep `json:"deps,omitempty"`
}

// Dur returns the execution time (launch → finish).
func (s *Span) Dur() time.Duration { return s.Finish - s.Launch }

// defaultFlightCap bounds the process-wide recorder at ~64K spans —
// big enough to hold a whole paper-scale figure run, small enough
// (a few MB) to stay resident in production.
const defaultFlightCap = 1 << 16

// FlightRecorder is a lock-free ring buffer of completed spans — a
// flight recorder that can stay on in production: recording is one
// atomic increment plus one atomic pointer store, never a lock, and
// when the ring wraps the oldest spans are overwritten. A nil
// recorder discards everything, so callers never need nil checks.
type FlightRecorder struct {
	mask uint64
	pos  atomic.Uint64 // total spans ever recorded
	ring []atomic.Pointer[Span]
}

// NewFlight returns a recorder holding the most recent capacity spans
// (rounded up to a power of two; capacity <= 0 uses the default).
func NewFlight(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = defaultFlightCap
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &FlightRecorder{mask: uint64(n - 1), ring: make([]atomic.Pointer[Span], n)}
}

var defaultFlight = NewFlight(0)

// DefaultFlight returns the process-wide flight recorder that
// runtimes record into when Config.Flight is nil — the trace
// counterpart of metrics.Default().
func DefaultFlight() *FlightRecorder { return defaultFlight }

// Record appends one span. The span must not be mutated afterwards.
func (f *FlightRecorder) Record(s *Span) {
	if f == nil {
		return
	}
	i := f.pos.Add(1) - 1
	f.ring[i&f.mask].Store(s)
}

// Cap returns the ring capacity in spans.
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return len(f.ring)
}

// Total returns how many spans were ever recorded.
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	return f.pos.Load()
}

// Dropped returns how many spans the ring has overwritten.
func (f *FlightRecorder) Dropped() uint64 {
	if total := f.Total(); total > uint64(f.Cap()) {
		return total - uint64(f.Cap())
	}
	return 0
}

// Snapshot returns the retained spans ordered oldest → newest. It is
// safe to call concurrently with Record; spans racing the snapshot
// may or may not be included.
func (f *FlightRecorder) Snapshot() []Span {
	if f == nil {
		return nil
	}
	pos := f.pos.Load()
	n := uint64(len(f.ring))
	start := uint64(0)
	if pos > n {
		start = pos - n
	}
	out := make([]Span, 0, pos-start)
	for i := start; i < pos; i++ {
		if s := f.ring[i&f.mask].Load(); s != nil {
			out = append(out, *s)
		}
	}
	return out
}

// Reset discards all retained spans (the total count keeps rising, so
// Dropped stays meaningful).
func (f *FlightRecorder) Reset() {
	if f == nil {
		return
	}
	for i := range f.ring {
		f.ring[i].Store(nil)
	}
}

// LatestRun filters spans down to the highest run id present —
// process-wide recorders accumulate spans from every runtime, and
// analysis is per schedule.
func LatestRun(spans []Span) []Span {
	var max uint64
	for i := range spans {
		if spans[i].Run > max {
			max = spans[i].Run
		}
	}
	return FilterRun(spans, max)
}

// FilterRun returns the spans belonging to one run id.
func FilterRun(spans []Span, run uint64) []Span {
	out := make([]Span, 0, len(spans))
	for i := range spans {
		if spans[i].Run == run {
			out = append(out, spans[i])
		}
	}
	return out
}
