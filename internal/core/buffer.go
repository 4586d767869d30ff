package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"hstreams/internal/coi"
	"hstreams/internal/floatbits"
)

// proxyAlign keeps distinct buffers on distinct cache-line-aligned
// proxy addresses.
const proxyAlign = 64

// Buffer lifecycle states. A buffer is allocated live, transitions to
// free-pending when the owner calls Free, and to recycled when its
// last in-flight reference retires (immediately, when there is none).
// Recycling releases the proxy range back to the allocator and drops
// every domain instance; the *Buf handle itself stays valid but
// rejects new operands with ErrBufferFreed.
const (
	bufLive int32 = iota
	bufFreePending
	bufRecycled
)

// Buf is an hStreams buffer: a range of the unified source proxy
// address space, instantiated in every domain. The host instance is
// the source of truth the source thread may touch directly; card
// instances live sink-side and are reached by transfers.
type Buf struct {
	rt    *Runtime
	name  string
	size  int64
	proxy uint64
	host  []byte      // source instance (nil in Sim mode)
	inst  []*cardInst // per domain index; nil for host / Sim

	// refs counts operands of enqueued-but-incomplete actions.
	// enqueue retains per operand before checking state; finish (and
	// every enqueue failure path) releases. The retain-then-check /
	// check-refs-then-CAS ordering between enqueue and Free makes
	// use-after-free detection race-free: a concurrent Free either
	// observes the reference and defers reclamation to the release,
	// or has already left bufLive and the enqueue fails.
	refs atomic.Int64
	// state is one of bufLive / bufFreePending / bufRecycled.
	state atomic.Int32
}

// cardInst is a buffer's instance in one card domain. Alloc1D creates
// it on a goroutine of its own, which closes ready once cb or err is
// set and then exits; reclamation waits for ready, so Free and Fini
// outlast every such goroutine.
type cardInst struct {
	ready chan struct{}
	cb    *coi.Buffer
	err   error
}

// wait blocks until the instance's creation has finished.
func (ci *cardInst) wait() (*coi.Buffer, error) {
	<-ci.ready
	return ci.cb, ci.err
}

// newCardInstance creates one card instance: a pool get and clear, or
// a fresh registration. Tests replace it to hold creation open.
var newCardInstance = (*coi.Process).CreateBuffer

// Alloc1D creates a buffer of size bytes, instantiated in all domains
// (hStreams_app_create_buf). In Real mode the host instance exists on
// return, so the caller may fill HostBytes at once; the card instances
// are created off the caller's goroutine, cards in parallel — the
// asynchronous sink allocation §VII announces — and the first action
// that needs one waits for it. A failed creation becomes that action's
// error. In Sim mode no memory is allocated — paper-scale experiments
// would need tens of GB — and only the proxy bookkeeping exists.
func (rt *Runtime) Alloc1D(name string, size int64) (*Buf, error) {
	if size <= 0 {
		return nil, ErrBadBufferSize
	}
	if rt.finalized.Load() {
		return nil, ErrFinalized
	}
	b := &Buf{rt: rt, name: name, size: size, proxy: rt.proxy.Alloc(uint64(size))}
	switch rt.cfg.Mode {
	case ModeReal:
		b.host = make([]byte, size)
		b.inst = make([]*cardInst, len(rt.domains))
		create := newCardInstance
		for i := 1; i < len(rt.domains); i++ {
			ci := &cardInst{ready: make(chan struct{})}
			b.inst[i] = ci
			p, domain := rt.procs[i], rt.domains[i].spec.Name
			go func() {
				ci.cb, ci.err = create(p, int(size))
				if ci.err != nil {
					ci.err = fmt.Errorf("core: instantiating %q in %s: %w", name, domain, ci.err)
				}
				close(ci.ready)
			}()
		}
	case ModeSim:
		// Synchronous sink-side allocation blocks the source thread
		// for each card instantiation (the bottleneck §VII calls
		// out); AsyncAlloc overlaps it with other source work.
		if !rt.cfg.AsyncAlloc {
			rt.ChargeSource(time.Duration(rt.NumCards()) * coi.FreshAllocCost)
		}
	}
	rt.mu.Lock()
	rt.bufs = append(rt.bufs, b)
	rt.mu.Unlock()
	rt.mets.buffersLive.Add(1)
	rt.mets.bufferBytes.Add(size)
	return b, nil
}

// Free releases the buffer (hStreams_DeAlloc). The call is
// asynchronous with respect to in-flight work: when actions still
// reference the buffer, reclamation is deferred until the last one
// retires (the dependence index guarantees those actions see intact
// storage — see DESIGN.md §9.4); when none do, the proxy range is
// recycled and every domain instance is dropped immediately. Either
// way the handle is dead to new work: later operands on it fail with
// ErrBufferFreed, and a second Free returns ErrBufferFreed without
// effect.
func (b *Buf) Free() error {
	if !b.state.CompareAndSwap(bufLive, bufFreePending) {
		return fmt.Errorf("%w: %q already freed", ErrBufferFreed, b.name)
	}
	b.rt.mets.buffersFreed.Inc()
	if b.refs.Load() == 0 {
		b.tryReclaim()
	} else {
		b.rt.mets.reclaimDeferred.Inc()
	}
	return nil
}

// Freed reports whether Free has been called on the buffer.
func (b *Buf) Freed() bool { return b.state.Load() != bufLive }

// retain takes one in-flight reference and reports whether the buffer
// is still live. On false the caller must release and refuse the
// operand — retaining first is what closes the race with Free.
func (b *Buf) retain() bool {
	b.refs.Add(1)
	return b.state.Load() == bufLive
}

// release drops one in-flight reference; the release that leaves a
// free-pending buffer unreferenced performs the deferred reclamation.
func (b *Buf) release() {
	if b.refs.Add(-1) == 0 && b.state.Load() == bufFreePending {
		b.tryReclaim()
	}
}

// tryReclaim moves free-pending → recycled exactly once (concurrent
// callers race on the CAS; one wins) and releases the buffer's
// resources.
func (b *Buf) tryReclaim() {
	if !b.state.CompareAndSwap(bufFreePending, bufRecycled) {
		return
	}
	rt := b.rt
	rt.mu.Lock()
	for i, x := range rt.bufs {
		if x == b {
			last := len(rt.bufs) - 1
			rt.bufs[i] = rt.bufs[last]
			rt.bufs[last] = nil
			rt.bufs = rt.bufs[:last]
			break
		}
	}
	streams := rt.streams
	rt.mu.Unlock()
	// Zero references means every interval in the per-stream indexes
	// belongs to an action that has finished executing, so the whole
	// per-buffer entry can go (one stream lock at a time, per the
	// locking discipline).
	for _, s := range streams {
		s.mu.Lock()
		delete(s.index, b)
		s.mu.Unlock()
	}
	if re, ok := rt.exec.(*realExec); ok {
		re.res.forget(b)
	}
	for _, ci := range b.inst {
		if ci == nil {
			continue
		}
		// An instance still being created is waited for, not skipped:
		// destroying it half-built, or leaving it to finish after Free,
		// would leak its pool block.
		if cb, _ := ci.wait(); cb != nil {
			cb.Destroy()
		}
	}
	b.inst = nil
	b.host = nil
	rt.proxy.Free(b.proxy, uint64(b.size))
	rt.mets.proxyRecycled.Inc()
	rt.mets.buffersLive.Add(-1)
	rt.mets.bufferBytes.Add(-b.size)
}

// releaseOps drops the in-flight references a failed or finished
// enqueue holds on its operand buffers. Call without any stream lock
// held — the release that triggers reclamation takes stream locks
// itself.
func releaseOps(ops []Operand) {
	for _, o := range ops {
		o.Buf.release()
	}
}

// AllocFloat64 creates a buffer holding n float64 elements and, in
// Real mode, returns the host instance viewed as a []float64.
func (rt *Runtime) AllocFloat64(name string, n int) (*Buf, []float64, error) {
	b, err := rt.Alloc1D(name, int64(n)*8)
	if err != nil {
		return nil, nil, err
	}
	if b.host == nil {
		return b, nil, nil
	}
	return b, floatbits.Float64s(b.host), nil
}

// Name returns the buffer's name.
func (b *Buf) Name() string { return b.name }

// Size returns the buffer's length in bytes.
func (b *Buf) Size() int64 { return b.size }

// ProxyBase returns the buffer's base address in the source proxy
// address space.
func (b *Buf) ProxyBase() uint64 { return b.proxy }

// HostBytes returns the host (source) instance, or nil in Sim mode.
func (b *Buf) HostBytes() []byte { return b.host }

// HostFloat64s returns the host instance viewed as float64s, or nil
// in Sim mode.
func (b *Buf) HostFloat64s() []float64 {
	if b.host == nil {
		return nil
	}
	return floatbits.Float64s(b.host)
}

// card returns the buffer's instance in card domain i, waiting for
// Alloc1D's creation of it: every user of a card instance — transfer,
// run-function operand, quarantine flush — comes through here first.
func (b *Buf) card(i int) (*coi.Buffer, error) { return b.inst[i].wait() }

// instanceBytes resolves the buffer's storage for a domain, nil when
// the card instance could not be created. Host-as-target streams alias
// the source instance — the aliasing that lets the runtime optimize
// host-stream transfers away (paper §V).
func (b *Buf) instanceBytes(d *Domain) []byte {
	if d.IsHost() || b.inst == nil {
		return b.host
	}
	cb, err := b.card(d.index)
	if err != nil {
		return nil
	}
	return cb.SinkBytes()
}

// Resolve translates a proxy address range to the owning buffer and
// offset, mirroring hStreams' proxy-address lookup.
func (rt *Runtime) Resolve(proxy uint64, n int64) (*Buf, int64, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, b := range rt.bufs {
		if proxy >= b.proxy && proxy+uint64(n) <= b.proxy+uint64(b.size) {
			return b, int64(proxy - b.proxy), nil
		}
	}
	return nil, 0, fmt.Errorf("core: proxy range [%#x,+%d) not in any buffer", proxy, n)
}

// Access declares how an action touches an operand.
type Access int

const (
	// In marks a read-only operand.
	In Access = iota
	// Out marks a write-only operand.
	Out
	// InOut marks a read-write operand.
	InOut
)

// String labels the access mode for diagnostics.
func (a Access) String() string {
	switch a {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "inout"
	default:
		return fmt.Sprintf("Access(%d)", int(a))
	}
}

// writes reports whether the access modifies the operand.
func (a Access) writes() bool { return a != In }

// Operand is a byte range of a buffer with a declared access mode —
// the basis of hStreams dependence analysis (paper §II).
type Operand struct {
	Buf *Buf
	Off int64
	Len int64
	Acc Access
}

// Range builds an operand over b[off:off+n].
func (b *Buf) Range(off, n int64, acc Access) Operand {
	return Operand{Buf: b, Off: off, Len: n, Acc: acc}
}

// All builds an operand covering the whole buffer.
func (b *Buf) All(acc Access) Operand { return Operand{Buf: b, Off: 0, Len: b.size, Acc: acc} }

// FloatRange builds an operand over elements [i, i+n) of a float64
// buffer.
func (b *Buf) FloatRange(i, n int, acc Access) Operand {
	return Operand{Buf: b, Off: int64(i) * 8, Len: int64(n) * 8, Acc: acc}
}

// valid reports whether the operand lies inside its buffer.
func (o Operand) valid() bool {
	return o.Buf != nil && o.Off >= 0 && o.Len >= 0 && o.Off+o.Len <= o.Buf.size
}

// overlaps reports whether two operands touch intersecting bytes.
// Empty ranges touch nothing.
func (o Operand) overlaps(p Operand) bool {
	return o.Buf == p.Buf && o.Len > 0 && p.Len > 0 &&
		o.Off < p.Off+p.Len && p.Off < o.Off+o.Len
}

// hazardWith reports whether ordering must be preserved between two
// operand accesses (RAW, WAR or WAW).
func (o Operand) hazardWith(p Operand) bool {
	return o.overlaps(p) && (o.Acc.writes() || p.Acc.writes())
}
