package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"hstreams/internal/platform"
	"hstreams/internal/trace"
)

// ActKind classifies an action.
type ActKind uint8

const (
	// ActCompute is a kernel invocation at the stream's sink.
	ActCompute ActKind = iota
	// ActXferToSink moves operand bytes from the source instance to
	// the sink instance.
	ActXferToSink
	// ActXferToSrc moves operand bytes from the sink instance back to
	// the source instance.
	ActXferToSrc
	// ActSync is a synchronization marker: it orders against every
	// earlier action in its stream and every later one.
	ActSync
)

// String labels the action kind for traces and error text.
func (k ActKind) String() string {
	switch k {
	case ActCompute:
		return "compute"
	case ActXferToSink:
		return "xfer→sink"
	case ActXferToSrc:
		return "xfer→src"
	case ActSync:
		return "sync"
	default:
		return fmt.Sprintf("ActKind(%d)", int(k))
	}
}

// spanKind maps an action kind to the kind its span records.
var spanKind = [...]trace.Kind{
	ActCompute:    trace.Compute,
	ActXferToSink: trace.Transfer,
	ActXferToSrc:  trace.Transfer,
	ActSync:       trace.Sync,
}

// Action is one enqueued unit of work. A completed action doubles as
// an event: it can be waited on by the host (Runtime.EventWait) or by
// other streams (Stream.EnqueueEventWait).
type Action struct {
	// rec holds the action's flight-recorder span values, and is where
	// the action keeps its id, label, payload size, cost and lifecycle
	// timestamps. It comes from the stream's record slab, not from the
	// action itself, so the recorder can keep it without keeping the
	// action: enqueue fills identity, payload, cost and edges, the
	// executors stamp Launch and Finish, and finish adds the outcome
	// and publishes it.
	//
	// Enqueue is when the action entered its stream, Ready when its last
	// dependence resolved (== Enqueue if none were pending); Launch and
	// Finish are the executed interval (see Times). In Sim mode Ready is
	// also the earliest virtual start while the action waits: the
	// source thread's enqueue time, raised by each completing
	// dependence (see release). The edges (why the
	// action waited) are recorded only when causal tracing is on,
	// written at enqueue by the enqueuing goroutine and read at finish,
	// ordered by the launch handoff.
	rec    *trace.Rec
	stream *Stream
	// Operands (compute: user-declared; transfers: the moved range).
	ops []Operand

	// Scheduling state. npend and state are atomic: a predecessor in
	// another stream decrements npend without taking this stream's
	// lock, and exactly one decrement-to-zero launches. slot and fslot
	// are guarded by the owning stream's lock, and so are succ and
	// succs — by the lock of *this* action's stream, since successors
	// are registered while holding the predecessor's stream lock.
	npend atomic.Int32
	state atomic.Int32
	// fin flips after err and the timestamps are in place.
	fin  atomic.Bool
	kind ActKind
	// started guards rec.Launch so retries and re-routes never
	// restamp it; written and read only by the executor goroutine
	// running the action (exec_real.go).
	started bool
	slot    int32 // index in stream.inflight; O(1) swap retirement
	fslot   int32 // index in stream.frontier, -1 once it left
	// succ holds the first two successors and succs the rest, in the
	// order they linked, so an action that gates at most two others
	// carries no successor slice. The newest successor is the O(1)
	// duplicate-edge check (see newestSucc).
	succ  [2]*Action
	succs []*Action

	// doneCh is allocated lazily by the first waiter, so the hot path
	// (most actions are never waited on individually) allocates no
	// channel at all — see Done for the fin/doneCh ordering dance.
	doneCh atomic.Pointer[chan struct{}]
	err    error

	// res holds the resilience reporting counters (exec_real.go /
	// resilience.go), allocated on the first resilience event and
	// touched only by the executor goroutine running the action:
	// fault-free finishes (the overwhelmingly common case, and the
	// only case Sim mode ever sees) then pay one nil check instead of
	// copying four always-zero fields — measured at ~1.5pp of the <5%
	// tracing budget on the tier-1 matmul.
	res *resNote

	// Compute payload. The kernel's name is the record's label; Real
	// mode resolves it to kernelID at enqueue, and the executors look
	// the kernel up by id (kernelByID).
	kernelID int64
	args     []int64

	// replay is set in replay mode (checkpoint.go), where the
	// dependence set is prescribed by a checkpoint instead of
	// discovered from operands.
	replay *replayNote
}

// replayNote is what a replayed action carries beyond an ordinary
// one: enqueue skips the operand scan and barrier bookkeeping, and
// why supplies the recorded edge kind for each extraDeps entry.
type replayNote struct {
	why []trace.DepKind
}

// newAction returns an action of kind for stream s, labelled label,
// moving bytes (transfers) at cost (compute).
func newAction(kind ActKind, s *Stream, label string, bytes int64, cost platform.Cost) *Action {
	a := &Action{kind: kind, stream: s, rec: s.recs.New()}
	a.rec.Label = label
	a.rec.Bytes = bytes
	a.rec.Flops = cost.Flops
	a.rec.CostKernel = int32(cost.Kernel)
	a.rec.CostN = cost.N
	a.rec.CostBytes = cost.Bytes
	a.rec.CostExtra = cost.Extra
	return a
}

// cost returns the platform cost descriptor the action was enqueued
// with.
func (a *Action) cost() platform.Cost {
	r := a.rec
	return platform.Cost{Kernel: platform.Kernel(r.CostKernel), Flops: r.Flops, Bytes: r.CostBytes, N: r.CostN, Extra: r.CostExtra}
}

// resNote is an action's resilience report, allocated lazily on the
// first retry/deadline/re-route event (resilience is Real-mode only
// and faults are rare, so most actions never carry one). finish
// copies it into the span when present.
type resNote struct {
	retries     int
	retryWait   time.Duration
	deadlineHit bool
	rerouted    bool
	// exhausted marks an action that failed after consuming its full
	// retry budget; finish turns it into an EvRetriesExhausted
	// lifecycle event (events.go) so journal emission stays off the
	// attempt path.
	exhausted bool
}

// resNote returns the action's resilience report, allocating it on
// first use. Called only from the executor goroutine running the
// action, like every other access to the resilience fields.
func (a *Action) resNote() *resNote {
	if a.res == nil {
		a.res = &resNote{}
	}
	return a.res
}

type actState = int32

const (
	statePending actState = iota
	stateLaunched
	stateDone
)

// completed reports the scheduler-internal done state; unlike the
// public Completed it is meant for use under the stream lock that
// finish holds while storing stateDone, so index pruning and addDep
// see a consistent value.
func (a *Action) completed() bool { return a.state.Load() == stateDone }

// ID returns the action's runtime-unique id.
func (a *Action) ID() uint64 { return a.rec.ID }

// Kind returns the action's kind.
func (a *Action) Kind() ActKind { return a.kind }

// Stream returns the stream the action was enqueued into.
func (a *Action) Stream() *Stream { return a.stream }

// closedDone is the shared already-closed channel handed to waiters
// that arrive after completion without a channel ever being registered.
var closedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Done returns a channel closed when the action completes. The channel
// is allocated on first call — enqueueing an action no longer pays for
// a channel nobody waits on. Publication races with finish: both sides
// call closeDone, and the fin/doneCh access order (finish stores fin
// then loads doneCh; Done publishes doneCh then loads fin) guarantees
// at least one side closes a channel registered either way.
func (a *Action) Done() <-chan struct{} {
	if p := a.doneCh.Load(); p != nil {
		return *p
	}
	if a.fin.Load() {
		return closedDone
	}
	ch := make(chan struct{})
	if !a.doneCh.CompareAndSwap(nil, &ch) {
		return *a.doneCh.Load()
	}
	if a.fin.Load() {
		a.closeDone()
	}
	return ch
}

// closeDone closes the registered done channel, if there is one, exactly
// once: the caller whose CAS swaps it for the shared closed channel
// closes it, and every later Done returns the shared one.
func (a *Action) closeDone() {
	if p := a.doneCh.Load(); p != nil && p != &closedDone && a.doneCh.CompareAndSwap(p, &closedDone) {
		close(*p)
	}
}

// Completed reports whether the action has finished.
func (a *Action) Completed() bool { return a.fin.Load() }

// Err returns the action's error; valid after completion.
func (a *Action) Err() error { return a.err }

// Wait blocks the host until the action completes and returns its
// error. In Sim mode it pumps the virtual clock.
func (a *Action) Wait() error {
	a.stream.rt.exec.waitAction(a)
	return a.err
}

// Times returns the executed interval on the runtime clock; valid
// after completion.
func (a *Action) Times() (start, end time.Duration) { return a.rec.Launch, a.rec.Finish }

// enqueue computes dependences under the FIFO-semantic rule and hands
// ready actions to the executor. extraDeps carry cross-stream event
// waits.
//
// Dependence discovery queries the stream's operand-interval index
// (depindex.go) instead of scanning the inflight window, and the only
// locks taken are the enqueuing stream's — plus, briefly, the stream
// lock of each explicit cross-stream dependence — so enqueues on
// different streams never contend. At most one stream lock is held at
// any moment, which rules out lock-order deadlocks by construction.
func (rt *Runtime) enqueue(a *Action, extraDeps []*Action) (*Action, error) {
	for _, o := range a.ops {
		if !o.valid() {
			return nil, ErrBadOperand
		}
		if o.Buf.rt != rt {
			return nil, ErrWrongRuntime
		}
	}
	for _, d := range extraDeps {
		if d.stream.rt != rt {
			return nil, ErrWrongRuntime
		}
	}
	if rt.finalized.Load() {
		return nil, ErrFinalized
	}
	// Retain each operand's buffer before checking its lifecycle
	// state: a concurrent Free either sees the reference and defers
	// reclamation to our release, or has already left the live state
	// and the enqueue fails here (see Buf.retain).
	for i, o := range a.ops {
		if !o.Buf.retain() {
			releaseOps(a.ops[:i+1])
			return nil, fmt.Errorf("%w: %q", ErrBufferFreed, o.Buf.name)
		}
	}
	s := a.stream
	a.rec.ID = rt.nextID.Add(1)
	// Hold one pending token until every dependence is linked: the
	// cross-stream event edges are added after s.mu is dropped, and
	// without the token a same-stream predecessor finishing meanwhile
	// could take npend to zero and launch the action before they land.
	a.npend.Store(1)
	capture := rt.flight != nil
	if capture {
		a.rec.Kind = spanKind[a.kind]
		a.rec.Ident = s.ident[a.kind]
	}

	// Sim mode stamps the enqueue with the source thread's clock, which
	// advances on waits and ChargeSource, not with the engine, which
	// may be pumped ahead.
	if rt.cfg.Mode == ModeSim {
		se := rt.exec.(*simExec)
		se.mu.Lock()
		a.rec.Enqueue = se.hostTime
		a.rec.Ready = se.hostTime
		se.mu.Unlock()
	} else {
		a.rec.Enqueue = rt.exec.now()
	}

	// addDep links a behind predecessor b. Must run while holding b's
	// stream lock; tolerates duplicates (a's edges to b are added one
	// after another under that lock, so a repeat finds a as b's newest
	// successor) and completed predecessors. A same-stream link takes
	// b off the stream's frontier; an event edge from another stream
	// leaves it on its own stream's.
	nDeps := 0
	addDep := func(b *Action, why trace.DepKind) {
		if b == a || b.completed() || b.newestSucc() == a {
			return
		}
		if b.stream == s {
			s.leaveFrontier(b)
		}
		b.addSucc(a)
		a.npend.Add(1)
		nDeps++
		if capture {
			a.rec.AddDep(trace.Dep{ID: b.rec.ID, Why: why})
		}
	}
	fifoDep := func(b *Action) { addDep(b, trace.DepFIFO) }

	s.mu.Lock()
	if s.destroyed {
		s.mu.Unlock()
		releaseOps(a.ops)
		return nil, ErrBadStream
	}
	// Dependences: program order within the stream, restricted to
	// hazardous operand overlap; sync actions order against
	// everything (paper §II: actions are free to execute and complete
	// out of order as long as the FIFO semantic is not violated).
	if a.replay != nil {
		// Replay: the checkpoint prescribes the full edge set via
		// extraDeps; discovery and barrier bookkeeping would invent
		// edges the original run never had.
	} else if a.kind == ActSync {
		// Every incomplete action of the stream reaches a frontier
		// member through same-stream edges and finishes no later than
		// it, so linking behind the frontier orders the sync after the
		// whole window. Each link takes its predecessor off the
		// frontier; walking it from the end keeps the swap removal
		// from moving an unvisited member.
		for i := len(s.frontier) - 1; i >= 0; i-- {
			addDep(s.frontier[i], trace.DepSync)
		}
		// The barrier dominates everything before it: later actions
		// depend on it alone, and the epoch bump lazily invalidates
		// every operand interval (depindex.go).
		s.barrier = a
		s.epoch++
	} else {
		if bar := s.barrier; bar != nil {
			addDep(bar, trace.DepSync)
		}
		for _, o := range a.ops {
			s.depScan(a, o, fifoDep)
		}
	}
	a.slot = int32(len(s.inflight))
	s.inflight = append(s.inflight, a)
	a.fslot = int32(len(s.frontier))
	s.frontier = append(s.frontier, a)
	depth := len(s.inflight)
	s.mu.Unlock()

	for i, d := range extraDeps {
		why := trace.DepEvent
		if a.replay != nil && i < len(a.replay.why) {
			why = a.replay.why[i]
		}
		ds := d.stream
		ds.mu.Lock()
		addDep(d, why)
		ds.mu.Unlock()
	}

	k := metricKind(a.kind)
	s.met.enq[k].Inc()
	s.met.depth.Add(1)
	s.met.depthPeak.SetMax(int64(depth))

	// Release the linking token; the decrement that lands on zero —
	// here or in a predecessor's finish — launches, exactly once.
	if a.npend.Add(-1) == 0 {
		a.state.Store(stateLaunched)
		switch {
		case nDeps == 0:
			a.rec.Ready = a.rec.Enqueue
		case rt.cfg.Mode == ModeReal:
			a.rec.Ready = rt.exec.now()
		}
		rt.exec.launch(a)
	}
	// Replay must not pump completions mid-enqueue: a predecessor
	// finishing before its successor enqueues would drop the recorded
	// edge (addDep skips completed predecessors), breaking the
	// edge-for-edge identity the replay asserts.
	if se, ok := rt.exec.(*simExec); ok && a.replay == nil {
		se.maybeDrain(s, depth)
	}
	return a, nil
}

// finish completes an action: records the trace, retires it from its
// stream in O(1) by swapping the last inflight entry into its slot,
// runs the stream's retire hook, and launches any successors whose
// last dependence this was. Executors call it exactly once per action.
func (rt *Runtime) finish(a *Action, err error) {
	s := a.stream
	// The span, the error and the operand references are all settled
	// before the action leaves inflight: Synchronize and
	// ThreadSynchronize return once inflight is empty, so whoever saw
	// the work drain also sees its complete record (Runtime.Spans,
	// Checkpoint), its failure (Runtime.Err), and its buffers released
	// (a Free then reclaims at once).
	//
	// The recorder keeps a.rec, which lives in the stream's record slab
	// and holds no pointer into the action, so a retired action is
	// garbage once its stream and its waiters let go of it. a.res is
	// tested once, keeping the fault-free finish at a single nil check
	// (the lazily-allocated resNote contract the telemetry overhead
	// budget counts on).
	r := a.res
	if rt.flight != nil {
		a.rec.Err = err != nil
		if r != nil {
			a.rec.SetRetries(r.retries, r.retryWait)
			a.rec.DeadlineHit, a.rec.Rerouted = r.deadlineHit, r.rerouted
		}
		rt.flight.Publish(a.rec)
	}
	if r != nil {
		rt.emitResEvents(a, r, err)
	}
	a.err = err
	rt.setErr(err)
	// Never under s.mu: the release that reclaims a free-pending buffer
	// takes stream locks itself.
	releaseOps(a.ops)
	s.mu.Lock()
	a.state.Store(stateDone)
	last := len(s.inflight) - 1
	i := a.slot
	moved := s.inflight[last]
	s.inflight[i] = moved
	moved.slot = i
	s.inflight[last] = nil
	s.inflight = s.inflight[:last]
	s.leaveFrontier(a)
	if s.barrier == a {
		s.barrier = nil
	}
	// Interval-index entries owned by a stay behind; queries prune
	// them lazily now that completed() reports done (depindex.go).
	// Such an entry, or a caller's event handle, may keep a retired
	// action reachable for a while; dropping its successor list keeps
	// that from pinning every later action it gated.
	first, rest := a.succ, a.succs
	a.succ, a.succs = [2]*Action{}, nil
	retire := s.retire
	s.mu.Unlock()

	s.retired.Add(1)
	s.met.depth.Add(-1)
	s.met.retired.Inc()

	// The successors this completion readies launch after the retire
	// hook; a short list stays in this frame.
	var buf [4]*Action
	ready := buf[:0]
	for _, succ := range first {
		if succ != nil && rt.release(a, succ) {
			ready = append(ready, succ)
		}
	}
	for _, succ := range rest {
		if rt.release(a, succ) {
			ready = append(ready, succ)
		}
	}

	rt.observeFinish(a, err)
	a.fin.Store(true)
	a.closeDone()
	if retire != nil {
		retire(a)
	}
	for _, r := range ready {
		rt.exec.launch(r)
	}
}

// release resolves succ's dependence on the finished action a, and
// reports whether it was succ's last one, in which case succ is marked
// launched and the caller launches it.
func (rt *Runtime) release(a, succ *Action) bool {
	// Successors may start no earlier than this completion; the Sim
	// executor reads the propagated ready time rather than the engine
	// clock, so the clock can be pumped ahead safely. (Sim mode runs
	// everything on the single host goroutine, so the raise needs no
	// lock.)
	sim := rt.cfg.Mode == ModeSim
	if sim && succ.rec.Ready < a.rec.Finish {
		succ.rec.Ready = a.rec.Finish
	}
	if succ.npend.Add(-1) != 0 {
		return false
	}
	succ.state.Store(stateLaunched)
	if !sim {
		succ.rec.Ready = rt.exec.now()
	}
	return true
}

// newestSucc returns the successor that linked behind a last, or nil.
// Caller holds a's stream lock.
func (a *Action) newestSucc() *Action {
	if n := len(a.succs); n > 0 {
		return a.succs[n-1]
	}
	if a.succ[1] != nil {
		return a.succ[1]
	}
	return a.succ[0]
}

// addSucc links succ behind a. Caller holds a's stream lock.
func (a *Action) addSucc(succ *Action) {
	for i := range a.succ {
		if a.succ[i] == nil {
			a.succ[i] = succ
			return
		}
	}
	a.succs = append(a.succs, succ)
}
