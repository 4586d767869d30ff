package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"hstreams/internal/coi"
	"hstreams/internal/platform"
	"hstreams/internal/timesim"
	"hstreams/internal/trace"
)

// Stream is a task queue with a source endpoint (the host thread that
// enqueues) and a sink endpoint (a core range of one domain, where
// actions execute). Streams on the host domain are "host-as-target"
// streams: their sink aliases the source instances, so transfers are
// optimized away.
type Stream struct {
	rt        *Runtime
	id        int
	name      string
	domain    *Domain
	firstCore int
	nCores    int

	// mu is the stream's scheduling lock — the sharded replacement
	// for the seed's global runtime lock. It guards inflight and
	// frontier (and the slot and fslot fields of their members),
	// destroyed, the operand-interval index, and the successor lists
	// of this stream's actions. The scheduler never holds two
	// stream locks at once.
	mu sync.Mutex
	// inflight holds enqueued-but-incomplete actions; order is
	// arbitrary (finish retires by swapping the last entry into the
	// retiree's slot), membership is what matters.
	inflight []*Action
	// frontier holds the incomplete actions that no later action of
	// the stream depends on; a sync links behind these alone. An
	// action joins at enqueue and leaves when a same-stream successor
	// links behind it or when it retires, both in O(1) by the same
	// swap as inflight.
	frontier []*Action
	// destroyed rejects further enqueues.
	destroyed bool
	// index is the per-buffer operand-interval dependence index; see
	// depindex.go. epoch numbers the current sync generation — a
	// mismatch marks an interval set as dominated by barrier and
	// resettable. barrier is the latest incomplete sync action.
	index   map[*Buf]*bufIvals
	epoch   uint64
	barrier *Action

	// retire is the retirement hook (SetRetireHook); nil for none.
	// Guarded by mu; finish reads it in the section that retires the
	// action.
	retire func(*Action)

	// retired counts actions out of inflight. It is this stream's own,
	// unlike hstreams_stream_retired_total (shared by same-named
	// streams of every runtime on a registry), so the watchdog reads
	// it as the stream's progress.
	retired atomic.Uint64

	// met caches this stream's resolved metric series.
	met *streamMetrics

	// recs hands out the stream's actions' span records. Its identity
	// table holds the span identity each action kind records under,
	// indexed by kind.
	recs *trace.RecSlab

	// Real-mode execution state. computeMu may be shared with other
	// streams mapped onto the same resources (see StreamCreateOn).
	computeMu *sync.Mutex
	pipeline  *coi.Pipeline

	// Sim-mode execution state; may be shared (see StreamCreateOn).
	slot *timesim.Resource
}

// StreamCreate binds a new stream's sink to cores
// [firstCore, firstCore+nCores) of domain d
// (hStreams_StreamCreate). Overlapping core ranges between streams
// are permitted — the paper lets tuners map multiple streams onto
// common resources.
func (rt *Runtime) StreamCreate(d *Domain, firstCore, nCores int) (*Stream, error) {
	return rt.StreamCreateOn(d, firstCore, nCores, nil)
}

// StreamCreateOn is StreamCreate with explicit resource sharing: when
// share is non-nil (and bound to the same domain), the new stream
// executes its computes on the same physical resources as share, so
// computes of the two streams contend instead of running in parallel.
// This is how tuners "map multiple streams onto a common set of
// resources" (§II), and how the CUDA-comparison model expresses
// streams that share one device-wide scheduler.
func (rt *Runtime) StreamCreateOn(d *Domain, firstCore, nCores int, share *Stream) (*Stream, error) {
	if d == nil || d.rt != rt {
		return nil, ErrWrongRuntime
	}
	if share != nil && share.domain != d {
		return nil, ErrBadStream
	}
	if nCores < 1 || firstCore < 0 || firstCore+nCores > d.spec.Cores() {
		return nil, fmt.Errorf("%w: cores [%d,%d) on %s with %d cores",
			ErrBadStream, firstCore, firstCore+nCores, d.spec.Name, d.spec.Cores())
	}
	rt.mu.Lock()
	if rt.finalized.Load() {
		rt.mu.Unlock()
		return nil, ErrFinalized
	}
	s := &Stream{
		rt:        rt,
		id:        rt.nStreams,
		domain:    d,
		firstCore: firstCore,
		nCores:    nCores,
		index:     make(map[*Buf]*bufIvals),
	}
	s.name = fmt.Sprintf("%s.s%d", d.spec.Name, s.id)
	s.recs = trace.NewRecSlab(spanIdents(rt, s.name, d)...)
	// met must be resolved before the stream is published in
	// rt.streams: Status() snapshots that slice under rt.mu and
	// reads s.met without further coordination.
	s.met = rt.mets.forStream(s.name, d.spec.Name)
	rt.nStreams++
	rt.streams = append(rt.streams, s)
	rt.geom.addStream(rt, s)
	rt.mu.Unlock()
	// The per-domain stream count is the telemetry layer's capacity
	// basis (utilization = busy-seconds / (span × streams)).
	rt.mets.domainStreams.With(d.spec.Name).Add(1)

	switch rt.cfg.Mode {
	case ModeSim:
		if share != nil {
			s.slot = share.slot
		} else {
			s.slot = timesim.NewResource(s.name)
		}
	case ModeReal:
		if share != nil {
			s.computeMu = share.computeMu
		} else {
			s.computeMu = new(sync.Mutex)
		}
		if !d.IsHost() {
			pl, err := rt.procs[d.index].CreatePipeline()
			if err != nil {
				return nil, err
			}
			s.pipeline = pl
		}
	}
	return s, nil
}

// spanIdents builds the span identities of a stream named name on
// domain d, indexed by action kind. Host-as-target transfers alias
// instances and move nothing, so only card-domain transfers name a
// link direction.
func spanIdents(rt *Runtime, name string, d *Domain) []*trace.Ident {
	plain := &trace.Ident{Run: rt.runID, Stream: name, Domain: d.spec.Name, Owner: rt.geom}
	toSink, toSrc := plain, plain
	if !d.IsHost() {
		host := rt.domains[0].spec.Name
		toSink = &trace.Ident{Run: rt.runID, Stream: name, Domain: d.spec.Name, Src: host, Dst: d.spec.Name, Owner: rt.geom}
		toSrc = &trace.Ident{Run: rt.runID, Stream: name, Domain: d.spec.Name, Src: d.spec.Name, Dst: host, Owner: rt.geom}
	}
	id := make([]*trace.Ident, 4)
	id[ActCompute], id[ActXferToSink], id[ActXferToSrc], id[ActSync] = plain, toSink, toSrc, plain
	return id
}

// leaveFrontier takes a off the stream's frontier if it is still
// there. Caller holds s.mu.
func (s *Stream) leaveFrontier(a *Action) {
	i := a.fslot
	if i < 0 {
		return
	}
	last := len(s.frontier) - 1
	moved := s.frontier[last]
	s.frontier[i] = moved
	moved.fslot = i
	s.frontier[last] = nil
	s.frontier = s.frontier[:last]
	a.fslot = -1
}

// ID returns the stream's integer handle — hStreams represents
// streams by plain integers, unlike CUDA's opaque pointers (§IV).
func (s *Stream) ID() int { return s.id }

// Name returns the stream's trace name.
func (s *Stream) Name() string { return s.name }

// Domain returns the domain the sink is bound to.
func (s *Stream) Domain() *Domain { return s.domain }

// Width returns the number of cores granted to the sink.
func (s *Stream) Width() int { return s.nCores }

// SetRetireHook installs fn as the stream's retirement hook; nil
// removes it. fn runs once per action retired after the call, on the
// goroutine that completed the action: the action has left the
// stream's window, Completed is true, Err is final and Done is closed,
// and successors it gated have not launched yet. fn runs without
// runtime locks held but on the executor's path, so it must be short
// and must not wait on other actions.
func (s *Stream) SetRetireHook(fn func(*Action)) {
	s.mu.Lock()
	s.retire = fn
	s.mu.Unlock()
}

// EnqueueCompute enqueues a kernel invocation
// (hStreams_EnqueueCompute). The kernel is looked up by name at the
// sink; args are scalar arguments; ops declare the memory operands
// that drive dependence analysis; cost informs the Sim-mode duration
// model (ignored in Real mode). The returned action is also the
// completion event.
func (s *Stream) EnqueueCompute(kernel string, args []int64, ops []Operand, cost platform.Cost) (*Action, error) {
	return s.EnqueueComputeDeps(kernel, args, ops, cost, nil)
}

// EnqueueComputeDeps is EnqueueCompute with additional explicit
// dependences on events from other streams. Unlike a preceding
// EnqueueEventWait (which bars the whole stream), only this action
// waits: later independent actions in the stream may still overtake
// it — the fine-grained cross-stream synchronization that layered
// runtimes (OmpSs) rely on (§IV: "dependencies are based on a
// data-flow approach").
func (s *Stream) EnqueueComputeDeps(kernel string, args []int64, ops []Operand, cost platform.Cost, deps []*Action) (*Action, error) {
	a := newAction(ActCompute, s, kernel, 0, cost)
	a.args, a.ops = args, ops
	if s.rt.cfg.Mode == ModeReal {
		id, ok := s.rt.kernelID(kernel)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoKernel, kernel)
		}
		a.kernelID = id
	}
	return s.rt.enqueue(a, deps)
}

// XferDir selects a transfer direction relative to the stream's sink.
type XferDir int

const (
	// ToSink moves source-instance bytes to the sink instance
	// (hStreams_app_xfer_memory HSTR_SRC_TO_SINK).
	ToSink XferDir = iota
	// ToSource moves sink-instance bytes back to the source.
	ToSource
)

// EnqueueXfer enqueues a transfer of b[off:off+n] in the given
// direction. On host-as-target streams the instances alias, so the
// action costs nothing but still participates in dependence order.
func (s *Stream) EnqueueXfer(b *Buf, off, n int64, dir XferDir) (*Action, error) {
	return s.EnqueueXferDeps(b, off, n, dir, nil)
}

// EnqueueXferDeps is EnqueueXfer with additional explicit dependences
// (see EnqueueComputeDeps).
func (s *Stream) EnqueueXferDeps(b *Buf, off, n int64, dir XferDir, deps []*Action) (*Action, error) {
	acc := Out
	kind := ActXferToSink
	label := b.xferLabel[ToSink]
	if dir == ToSource {
		acc = In
		kind = ActXferToSrc
		label = b.xferLabel[ToSource]
	}
	a := newAction(kind, s, label, n, platform.Cost{})
	a.ops = []Operand{{Buf: b, Off: off, Len: n, Acc: acc}}
	return s.rt.enqueue(a, deps)
}

// EnqueueXferAll transfers the whole buffer.
func (s *Stream) EnqueueXferAll(b *Buf, dir XferDir) (*Action, error) {
	return s.EnqueueXfer(b, 0, b.size, dir)
}

// EnqueueMarker enqueues a synchronization marker that orders against
// every earlier and later action in the stream and completes when all
// its predecessors have (hStreams_EnqueueMarker).
func (s *Stream) EnqueueMarker() (*Action, error) {
	a := newAction(ActSync, s, "marker", 0, platform.Cost{})
	return s.rt.enqueue(a, nil)
}

// EnqueueEventWait enqueues a marker that additionally waits for the
// given events from other streams — the cross-stream synchronization
// primitive (hStreams_EnqueueEventWait).
func (s *Stream) EnqueueEventWait(evs ...*Action) (*Action, error) {
	a := newAction(ActSync, s, "event-wait", 0, platform.Cost{})
	return s.rt.enqueue(a, evs)
}

// Destroy drains the stream and rejects further enqueues
// (hStreams_StreamDestroy). The integer handle and the stream's past
// events remain valid; only new work is refused, and no later stream
// of the runtime reuses the id. Once drained, the stream leaves the
// runtime: Status and ThreadSynchronize no longer see it, its
// dependence index is dropped, hstreams_domain_streams falls by one
// (unless Fini already took it off), its three per-stream series
// (hstreams_queue_depth, hstreams_queue_depth_peak and
// hstreams_stream_retired_total) leave the registry, and a card
// stream's COI pipeline is destroyed, so stream churn grows neither
// the runtime, the registry nor the card. Series are keyed by stream
// name, so a same-named stream of another runtime on the same registry
// shares those rows and loses them too. Destroy is idempotent: a
// second call only waits for the drain and changes nothing.
func (s *Stream) Destroy() error {
	s.mu.Lock()
	s.destroyed = true
	s.mu.Unlock()
	err := s.Synchronize()
	rt := s.rt
	rt.mu.Lock()
	i := slices.Index(rt.streams, s)
	if i >= 0 {
		// Never edit a published slice; see Runtime.streams.
		rt.streams = slices.Delete(slices.Clone(rt.streams), i, i+1)
	}
	counted := !rt.finalized.Load() // else Fini took it off the gauge
	rt.mu.Unlock()
	if i < 0 {
		return err
	}
	s.mu.Lock()
	s.index = nil
	s.mu.Unlock()
	if s.pipeline != nil {
		s.pipeline.Destroy()
	}
	rt.mets.deleteStream(s.name)
	if counted {
		rt.mets.domainStreams.With(s.domain.spec.Name).Add(-1)
	}
	return err
}

// enqueueReplay re-enqueues one checkpointed action with its recorded
// dependence edges (deps/whys parallel slices of predecessor actions
// and edge kinds). The replay note makes enqueue take the edges as
// prescribed instead of rediscovering them; see checkpoint.go.
func (s *Stream) enqueueReplay(kind ActKind, label string, bytes int64, cost platform.Cost, deps []*Action, whys []trace.DepKind) (*Action, error) {
	a := newAction(kind, s, label, bytes, cost)
	a.replay = &replayNote{why: whys}
	return s.rt.enqueue(a, deps)
}

// Synchronize blocks the host until every action previously enqueued
// in this stream has completed (hStreams_StreamSynchronize). inflight
// is unordered, so it waits on whatever member it sees and re-checks
// until the window is empty. It returns Runtime.Err, which already
// holds the failure of every action that has left the window. An
// action leaves the window before it is marked complete, so
// Completed may still read false for the last actions for a moment
// after Synchronize returns; Action.Wait waits for that mark.
func (s *Stream) Synchronize() error {
	for {
		s.mu.Lock()
		var pending *Action
		if len(s.inflight) > 0 {
			pending = s.inflight[0]
		}
		s.mu.Unlock()
		if pending == nil {
			return s.rt.Err()
		}
		s.rt.exec.waitAction(pending)
	}
}
