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
// big enough to hold a whole paper-scale figure run. Its ring is 64K ×
// 8-B pointers (512 KiB); once full they point at as many 160-B
// records, which live in their streams' record slabs (see RecSlab):
// 10.5 MiB in all, plus the labels, identities and rare overflow
// records they point at. Nothing in it keeps a retired action alive.
const defaultFlightCap = 1 << 16

// slabLen is how many records a RecSlab allocates at once.
const slabLen = 64

// inlineDeps is how many causal in-edges a record holds in place; the
// rest go to its overflow record.
const inlineDeps = 3

// Ident is the part of a span that all spans of one stream and
// direction share: the runtime instance, the stream and its domain,
// and the link direction of card transfers. A runtime builds one per
// stream and direction at stream creation; records point at it, so it
// must not be mutated afterwards.
type Ident struct {
	Run    uint64
	Stream string
	Domain string
	Src    string
	Dst    string
	// Owner is the producer's per-run value, opaque to this package
	// (the runtime hangs its checkpoint geometry here). The records
	// that point at the Ident keep it reachable, so it outlives its
	// producer while the ring retains a span of the run; RunOwner
	// reads it.
	Owner any
}

// Rec is one span's values as the flight recorder keeps them. Records
// come from a RecSlab, never from inside another object, and the
// runtime's actions each hold one from their stream's slab and fill it
// in place as the action goes — identity, payload and cost at enqueue,
// edges as they are found, timestamps as they happen — so recording a
// finished action is one pointer store (FlightRecorder.Publish).
// Ident and Label are shared; the overflow record holds what has no
// room in place: edges past the first three, and retries. A published
// record is not written again while the ring or a Snapshot can reach
// it, so readers need no lock; and since it lives in a slab, not in an
// action, the ring keeps no retired action reachable.
type Rec struct {
	ID                             uint64
	Enqueue, Ready, Launch, Finish time.Duration
	Bytes                          int64
	Flops                          float64
	CostN                          int
	CostBytes                      float64
	CostExtra                      time.Duration
	Ident                          *Ident
	Label                          string

	side  *overflow
	depID [inlineDeps]uint64
	at    uint64 // ring position, set by Publish

	CostKernel                 int32
	depWhy                     [inlineDeps]DepKind
	ndeps                      uint8
	Kind                       Kind
	Err, DeadlineHit, Rerouted bool
}

// overflow holds what a record has no room for. It is allocated only
// for spans with more than inlineDeps edges or with retries; buf backs
// the first few extra edges.
type overflow struct {
	deps      []Dep
	buf       [5]Dep
	retries   int
	retryWait time.Duration
}

func (r *Rec) over() *overflow {
	if r.side == nil {
		r.side = &overflow{}
	}
	return r.side
}

// AddDep appends one causal in-edge.
func (r *Rec) AddDep(d Dep) {
	if n := r.ndeps; n < inlineDeps {
		r.depID[n], r.depWhy[n] = d.ID, d.Why
		r.ndeps = n + 1
		return
	}
	o := r.over()
	if o.deps == nil {
		o.deps = o.buf[:0]
	}
	o.deps = append(o.deps, d)
}

// AppendDeps appends the record's causal in-edges to dst, in the order
// they were added.
func (r *Rec) AppendDeps(dst []Dep) []Dep {
	for i := range int(r.ndeps) {
		dst = append(dst, Dep{ID: r.depID[i], Why: r.depWhy[i]})
	}
	if o := r.side; o != nil {
		dst = append(dst, o.deps...)
	}
	return dst
}

// SetRetries records the span's retry count and total backoff.
func (r *Rec) SetRetries(n int, wait time.Duration) {
	if n != 0 || wait != 0 {
		o := r.over()
		o.retries, o.retryWait = n, wait
	}
}

// span copies the record into sp. Deps are appended to *arena, so one
// snapshot's edges share a few large arrays.
func (r *Rec) span(sp *Span, arena *[]Dep) {
	*sp = Span{
		ID: r.ID, Kind: r.Kind, Label: r.Label, Bytes: r.Bytes, Flops: r.Flops, Err: r.Err,
		Enqueue: r.Enqueue, Ready: r.Ready, Launch: r.Launch, Finish: r.Finish,
		DeadlineHit: r.DeadlineHit, Rerouted: r.Rerouted,
		CostKernel: int(r.CostKernel), CostN: r.CostN, CostBytes: r.CostBytes, CostExtra: r.CostExtra,
	}
	if id := r.Ident; id != nil {
		sp.Run, sp.Stream, sp.Domain, sp.Src, sp.Dst = id.Run, id.Stream, id.Domain, id.Src, id.Dst
	}
	if o := r.side; o != nil {
		sp.Retries, sp.RetryWait = o.retries, o.retryWait
	}
	n0 := len(*arena)
	*arena = r.AppendDeps(*arena)
	if n := len(*arena); n > n0 {
		sp.Deps = (*arena)[n0:n:n]
	}
}

// RecSlab hands out records, allocating them slabLen at a time, so a
// stream's records cost one heap object per slabLen actions rather
// than one each, and a full ring costs the garbage collector a few
// thousand large objects rather than 64K small ones. A record keeps
// its whole slab reachable (10 KiB), so an action a caller holds on to
// keeps its slab too; retired actions themselves are not kept. The
// zero value is ready to use, and New is safe for concurrent use.
type RecSlab struct {
	cur atomic.Pointer[recChunk]
}

type recChunk struct {
	n    atomic.Int32 // records handed out
	recs [slabLen]Rec
}

// New returns a zeroed record.
func (s *RecSlab) New() *Rec {
	for {
		c := s.cur.Load()
		if c != nil {
			if i := c.n.Add(1) - 1; i < slabLen {
				return &c.recs[i]
			}
		}
		fresh := new(recChunk)
		fresh.n.Store(1)
		if s.cur.CompareAndSwap(c, fresh) {
			return &fresh.recs[0]
		}
	}
}

// FlightRecorder is a bounded ring of completed spans — a flight
// recorder that can stay on in production. Each entry points at a
// published record (Rec), which no one writes while the ring holds it,
// so the ring needs no lock: a writer takes the next position with one
// atomic increment and publishes with one atomic swap of the entry,
// never waiting, and a reader copies whatever records the entries
// point at. When the ring wraps the oldest spans are overwritten. A
// nil recorder discards everything, so callers never need nil checks.
type FlightRecorder struct {
	mask  uint64
	pos   atomic.Uint64 // total spans ever recorded
	floor atomic.Uint64 // first position Snapshot returns (Reset)
	ring  []atomic.Pointer[Rec]
	recs  RecSlab // backs the records Record copies spans into
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
	return &FlightRecorder{mask: uint64(n - 1), ring: make([]atomic.Pointer[Rec], n)}
}

// defaultFlight is the trace counterpart of metrics.Default(), kept
// process-wide for the same reason: hsbench's figure runtimes are
// built inside the workload packages and pass no recorder, and its
// -critpath, -trace and -checkpoint read the latest figure run here.
var defaultFlight = NewFlight(0)

// DefaultFlight returns the process-wide flight recorder that
// runtimes record into when Config.Flight is nil.
func DefaultFlight() *FlightRecorder { return defaultFlight }

// Publish appends r as the newest span. r must come from a RecSlab,
// and neither r nor anything it points at may be written afterwards.
// A writer lapped before it stores (a later lap's record is already in
// its entry) drops r, so the newer record stays.
func (f *FlightRecorder) Publish(r *Rec) {
	if f == nil {
		return
	}
	i := f.pos.Add(1) - 1
	r.at = i
	e := &f.ring[i&f.mask]
	old := e.Swap(r)
	// A later lap can have stored here only once the position counter
	// is a whole lap past i, so the common case never reads the old
	// record. If one did, put it back, unless a still later one has
	// replaced r meanwhile.
	if old != nil && f.pos.Load()-i > f.mask+1 && old.at > i {
		e.CompareAndSwap(r, old)
	}
}

// Record appends a copy of one span: it copies sp into a record from
// the recorder's own slab and publishes that.
func (f *FlightRecorder) Record(sp *Span) {
	if f == nil {
		return
	}
	r := f.recs.New()
	*r = Rec{
		ID: sp.ID, Kind: sp.Kind, Label: sp.Label,
		Ident: &Ident{Run: sp.Run, Stream: sp.Stream, Domain: sp.Domain, Src: sp.Src, Dst: sp.Dst},
		Bytes: sp.Bytes, Flops: sp.Flops, Err: sp.Err,
		Enqueue: sp.Enqueue, Ready: sp.Ready, Launch: sp.Launch, Finish: sp.Finish,
		DeadlineHit: sp.DeadlineHit, Rerouted: sp.Rerouted,
		CostKernel: int32(sp.CostKernel), CostN: sp.CostN, CostBytes: sp.CostBytes, CostExtra: sp.CostExtra,
	}
	for _, d := range sp.Deps {
		r.AddDep(d)
	}
	r.SetRetries(sp.Retries, sp.RetryWait)
	f.Publish(r)
}

// RunOwner returns the Ident.Owner of a retained record of run, or nil
// when the ring retains none (or its producer attached none).
func (f *FlightRecorder) RunOwner(run uint64) any {
	if f == nil {
		return nil
	}
	for i := range f.ring {
		if r := f.ring[i].Load(); r != nil && r.Ident != nil && r.Ident.Run == run {
			return r.Ident.Owner
		}
	}
	return nil
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
// safe to call concurrently with Record, Publish and Reset; spans
// racing the snapshot may or may not be included.
func (f *FlightRecorder) Snapshot() []Span {
	if f == nil {
		return nil
	}
	// floor before pos: Reset stores a position it read, so the floor
	// loaded first is never past the position counter loaded after it.
	start := f.floor.Load()
	pos := f.pos.Load()
	if n := uint64(f.Cap()); pos > n && pos-n > start {
		start = pos - n
	}
	out := make([]Span, 0, pos-start)
	var deps []Dep
	for i := start; i < pos; i++ {
		// An entry still holding an older lap's record (its writer has
		// not published yet) or already a newer one is skipped.
		if r := f.ring[i&f.mask].Load(); r != nil && r.at == i {
			out = append(out, Span{})
			r.span(&out[len(out)-1], &deps)
		}
	}
	return out
}

// Reset discards all retained spans: Snapshot returns only what is
// recorded after it. The ring keeps its entries, and the total count
// keeps rising, so Dropped stays meaningful.
func (f *FlightRecorder) Reset() {
	if f == nil {
		return
	}
	f.floor.Store(f.pos.Load())
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
