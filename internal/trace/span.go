package trace

import (
	"sync/atomic"
	"time"
	"unsafe"
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
// 8-B pointers (512 KiB); once full they point at as many 128-B
// records, which live in their streams' record slabs (see RecSlab):
// 9.25 MiB of slab chunks. The records hold no pointers, so a
// collection scans the ring and the chunks' headers, not the records.
// Nothing in it keeps a retired action alive.
const defaultFlightCap = 1 << 16

// slabLen is how many records a RecSlab allocates at once. A record
// keeps its slot in a uint8, and its chunk's tables are indexed by it.
const slabLen = 64

// inlineDeps is how many causal in-edges a record holds in place; the
// rest go to its overflow record.
const inlineDeps = 3

// Ident is the part of a span that all spans of one stream and
// direction share: the runtime instance, the stream and its domain,
// and the link direction of card transfers. A runtime builds one per
// stream and direction at stream creation and hands them to the
// stream's RecSlab; records index them, so an Ident must not be
// mutated afterwards.
type Ident struct {
	Run    uint64
	Stream string
	Domain string
	Src    string
	Dst    string
	// Owner is the producer's per-run value, opaque to this package
	// (the runtime hangs its checkpoint geometry here). The chunks of
	// the records that index the Ident keep it reachable, so it
	// outlives its producer while the ring retains a span of the run;
	// RunOwner reads it.
	Owner any
}

// Rec is one span's values as the flight recorder keeps them. Records
// come from a RecSlab, never from anywhere else, and the runtime's
// actions each hold one from their stream's slab and fill it in place
// as the action goes — identity, payload and cost at enqueue, edges as
// they are found, timestamps as they happen — so recording a finished
// action is one pointer store (FlightRecorder.Publish).
//
// A record holds no pointer: what would need one lives in the header
// of its slab chunk, which the record finds from its own slot. The
// identity is an index into the slab's identity table (SetIdent), the
// label sits in the chunk's label table at the record's slot
// (SetLabel), and so does the overflow record, which holds what has no
// room in place: edges past the first three, and retries. So a full
// ring costs the garbage collector the ring's pointers and a few
// thousand chunk headers, not three pointers a span. A published
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

	depID [inlineDeps]uint64
	at    uint64 // ring sequence number, set by Publish

	CostKernel                 int32
	depWhy                     [inlineDeps]DepKind
	ndeps                      uint8
	Kind                       Kind
	Err, DeadlineHit, Rerouted bool

	slot  uint8 // index in its chunk's recs, set by RecSlab.New
	ident uint8 // index in its chunk's identity table
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

// chunk returns the slab chunk r lives in: r is recs[r.slot] of it.
func (r *Rec) chunk() *recChunk {
	back := unsafe.Offsetof(recChunk{}.recs) + uintptr(r.slot)*unsafe.Sizeof(Rec{})
	return (*recChunk)(unsafe.Add(unsafe.Pointer(r), -int(back)))
}

// SetIdent sets the record's identity to entry i of its slab's
// identity table (see NewRecSlab).
func (r *Rec) SetIdent(i int) { r.ident = uint8(i) }

// Ident returns the record's identity, or nil when its slab's table
// has none at its index.
func (r *Rec) Ident() *Ident {
	if t := r.chunk().idents; int(r.ident) < len(t) {
		return t[r.ident].Load()
	}
	return nil
}

// SetLabel sets the record's label.
func (r *Rec) SetLabel(label string) { r.chunk().labels[r.slot] = label }

// Label returns the record's label.
func (r *Rec) Label() string { return r.chunk().labels[r.slot] }

// side returns the record's overflow record, or nil when it has none.
func (r *Rec) side() *overflow {
	if t := r.chunk().sides.Load(); t != nil {
		return t[r.slot]
	}
	return nil
}

// over returns the record's overflow record, allocating it (and its
// chunk's overflow table) on first use.
func (r *Rec) over() *overflow {
	c := r.chunk()
	t := c.sides.Load()
	if t == nil {
		t = new([slabLen]*overflow)
		if !c.sides.CompareAndSwap(nil, t) {
			t = c.sides.Load()
		}
	}
	if t[r.slot] == nil {
		t[r.slot] = &overflow{}
	}
	return t[r.slot]
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
	if r.ndeps == inlineDeps { // edges spill only once these are full
		if o := r.side(); o != nil {
			dst = append(dst, o.deps...)
		}
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
		ID: r.ID, Kind: r.Kind, Label: r.Label(), Bytes: r.Bytes, Flops: r.Flops, Err: r.Err,
		Enqueue: r.Enqueue, Ready: r.Ready, Launch: r.Launch, Finish: r.Finish,
		DeadlineHit: r.DeadlineHit, Rerouted: r.Rerouted,
		CostKernel: int(r.CostKernel), CostN: r.CostN, CostBytes: r.CostBytes, CostExtra: r.CostExtra,
	}
	if id := r.Ident(); id != nil {
		sp.Run, sp.Stream, sp.Domain, sp.Src, sp.Dst = id.Run, id.Stream, id.Domain, id.Src, id.Dst
	}
	if o := r.side(); o != nil {
		sp.Retries, sp.RetryWait = o.retries, o.retryWait
	}
	n0 := len(*arena)
	*arena = r.AppendDeps(*arena)
	if n := len(*arena); n > n0 {
		sp.Deps = (*arena)[n0:n:n]
	}
}

// RecSlab hands out records, allocating them slabLen at a time in one
// chunk, so a stream's records cost one heap object per slabLen
// actions rather than one each. A chunk's header holds every pointer
// its records need — the slab's identity table, a label per slot and
// an overflow table made on first use — ahead of the pointer-free
// records, so the collector scans the header and skips the records
// (9.25 KiB a chunk). A record keeps its whole chunk reachable, so an
// action a caller holds on to keeps its chunk too; retired actions
// themselves are not kept. New is safe for concurrent use, and so are
// a record's setters while each record has one writer.
type RecSlab struct {
	cur atomic.Pointer[recChunk]
	// idents is the identity table every chunk shares, fixed by
	// NewRecSlab. The zero value has none, and gives each chunk a
	// table of its own instead, one entry per slot, which
	// FlightRecorder.Record fills as it goes; hence the atomics.
	idents []atomic.Pointer[Ident]
}

// NewRecSlab returns a slab whose records take their identities from
// ids: a record's SetIdent(i) means ids[i].
func NewRecSlab(ids ...*Ident) *RecSlab {
	s := &RecSlab{idents: make([]atomic.Pointer[Ident], len(ids))}
	for i, id := range ids {
		s.idents[i].Store(id)
	}
	return s
}

// recChunk is slabLen records behind the header that holds everything
// of theirs a pointer reaches. The records come last, so the pointer
// words of the chunk end where they begin.
type recChunk struct {
	idents []atomic.Pointer[Ident]
	sides  atomic.Pointer[[slabLen]*overflow]
	labels [slabLen]string
	n      atomic.Int32 // records handed out
	recs   [slabLen]Rec
}

// New returns a zeroed record.
func (s *RecSlab) New() *Rec {
	for {
		c := s.cur.Load()
		if c != nil {
			if i := c.n.Add(1) - 1; i < slabLen {
				r := &c.recs[i]
				r.slot = uint8(i)
				return r
			}
		}
		fresh := &recChunk{idents: s.idents}
		if fresh.idents == nil {
			fresh.idents = make([]atomic.Pointer[Ident], slabLen)
		}
		fresh.n.Store(1)
		if s.cur.CompareAndSwap(c, fresh) {
			return &fresh.recs[0]
		}
	}
}

// FlightRecorder is a bounded ring of completed spans — a flight
// recorder that can stay on in production: a Ring of published
// records (Rec), so recording never waits, and the oldest spans are
// overwritten. A nil recorder discards everything, so callers never
// need nil checks.
type FlightRecorder struct {
	ring *Ring[Rec]
	recs RecSlab // backs the records Record copies spans into
}

// NewFlight returns a recorder holding the most recent capacity spans
// (rounded up to a power of two; capacity <= 0 uses the default).
func NewFlight(capacity int) *FlightRecorder {
	return &FlightRecorder{ring: NewRing(capacity, defaultFlightCap, func(r *Rec) *uint64 { return &r.at })}
}

// defaultFlight is the trace counterpart of metrics.Default(), kept
// process-wide for the same reason: hsbench's figure runtimes are
// built inside the workload packages and pass no recorder, and its
// -critpath, -trace and -checkpoint read the latest figure run here.
var defaultFlight = NewFlight(0)

// DefaultFlight returns the process-wide flight recorder that
// runtimes record into when Config.Flight is nil.
func DefaultFlight() *FlightRecorder { return defaultFlight }

// rg returns the recorder's ring, nil for a nil recorder.
func (f *FlightRecorder) rg() *Ring[Rec] {
	if f == nil {
		return nil
	}
	return f.ring
}

// Publish appends r as the newest span. r must come from a RecSlab,
// and neither r nor anything it points at may be written afterwards.
// A writer lapped before it stores drops r (see Ring.Publish).
func (f *FlightRecorder) Publish(r *Rec) { f.rg().Publish(r) }

// Record appends a copy of one span: it copies sp into a record from
// the recorder's own slab and publishes that. The span's identity
// reuses an equal one already in the record's chunk, so spans of one
// stream and direction allocate one Ident a chunk.
func (f *FlightRecorder) Record(sp *Span) {
	if f == nil {
		return
	}
	r := f.recs.New()
	r.ID, r.Kind, r.Bytes, r.Flops, r.Err = sp.ID, sp.Kind, sp.Bytes, sp.Flops, sp.Err
	r.Enqueue, r.Ready, r.Launch, r.Finish = sp.Enqueue, sp.Ready, sp.Launch, sp.Finish
	r.DeadlineHit, r.Rerouted = sp.DeadlineHit, sp.Rerouted
	r.CostKernel, r.CostN, r.CostBytes, r.CostExtra = int32(sp.CostKernel), sp.CostN, sp.CostBytes, sp.CostExtra
	r.SetLabel(sp.Label)
	want := Ident{Run: sp.Run, Stream: sp.Stream, Domain: sp.Domain, Src: sp.Src, Dst: sp.Dst}
	r.ident = r.slot // its own entry, empty until it fills it below
	tab := r.chunk().idents
	for i := range tab {
		if id := tab[i].Load(); id != nil && *id == want {
			r.ident = uint8(i)
			break
		}
	}
	if r.ident == r.slot {
		id := want
		tab[r.slot].Store(&id)
	}
	for _, d := range sp.Deps {
		r.AddDep(d)
	}
	r.SetRetries(sp.Retries, sp.RetryWait)
	f.Publish(r)
}

// RunOwner returns the Ident.Owner of a retained record of run, or nil
// when the ring retains none (or its producer attached none).
func (f *FlightRecorder) RunOwner(run uint64) (owner any) {
	f.rg().Each(func(r *Rec) {
		if id := r.Ident(); id != nil && id.Run == run {
			owner = id.Owner
		}
	})
	return owner
}

// Cap returns the ring capacity in spans.
func (f *FlightRecorder) Cap() int { return f.rg().Cap() }

// Total returns how many spans were ever recorded.
func (f *FlightRecorder) Total() uint64 { return f.rg().Total() }

// Dropped returns how many spans the ring has overwritten.
func (f *FlightRecorder) Dropped() uint64 { return f.rg().Dropped() }

// Snapshot returns the retained spans ordered oldest → newest. It is
// safe to call concurrently with Record, Publish and Reset; spans
// racing the snapshot may or may not be included.
func (f *FlightRecorder) Snapshot() []Span {
	var deps []Dep
	return Collect(f.rg(), func(sp *Span, r *Rec) { r.span(sp, &deps) })
}

// Reset discards all retained spans: Snapshot returns only what is
// recorded after it. Total keeps rising, so Dropped stays meaningful.
func (f *FlightRecorder) Reset() { f.rg().Reset() }

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
