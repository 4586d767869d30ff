package core

// resilience.go is the scheduler half of the fault-tolerance layer
// (the injector lives in internal/fault; the card attempt in
// exec_real.go and the quarantine flush below are its only callers).
// Three mechanisms compose, all confined to Real-mode card actions —
// host actions have no fabric or sink process to fail:
//
//   - Retry: a transient failure (fault.IsTransient) is re-attempted
//     with exponential backoff and deterministic jitter, up to
//     RetryPolicy.Max times. A failed attempt has no side effects by
//     construction (attemptCard consults the injector before any bytes
//     move or any descriptor is sent), so re-attempting is always
//     sound.
//   - Deadline: Config.Deadline bounds one action's total time across
//     attempts. It is checked at attempt boundaries — a DMA cannot be
//     aborted midflight, exactly like real PCIe — so a slow attempt
//     that finishes late but successfully is a success, and an
//     attempt that fails after the deadline passed reports
//     ErrDeadlineExceeded (a fatal error: the taxonomy never retries
//     it).
//   - Breaker + re-route: BreakerPolicy.Threshold consecutive
//     transient failures on one domain trip its breaker. The domain
//     is quarantined (one-way — a tripped domain stays out for the
//     runtime's lifetime), in-flight card actions drain, the
//     card-dirty byte ranges of every buffer are flushed back to the
//     host instance, and every subsequent action bound for the domain
//     executes on the host domain instead (host-as-target aliasing
//     turns its transfers into no-ops). Re-routing happens strictly
//     at the execution layer — dependence analysis, launch order and
//     the operand-overlap partial order are untouched, which is why
//     the FIFO-with-overlap semantic survives (DESIGN.md §6 has the
//     argument).
//
// The drain handshake is the standard counted-inflight pattern:
// workers increment dr.inflight and THEN load dr.quarantined; the
// flusher stores quarantined=true and THEN polls inflight==0. Go's
// sequentially consistent atomics guarantee any worker that read
// quarantined==false is visible in the flusher's poll, so the flush
// never races a card-side attempt.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hstreams/internal/fault"
	"hstreams/internal/metrics"
)

// ErrDeadlineExceeded is reported by actions whose attempts did not
// succeed within Config.Deadline. It is fatal in the retry taxonomy.
var ErrDeadlineExceeded = errors.New("core: action deadline exceeded")

// RetryPolicy bounds the scheduler's re-attempts of transiently
// failing card actions. The zero value disables retries (every
// transient failure is final), preserving pre-resilience behavior.
type RetryPolicy struct {
	// Max is the maximum number of RE-attempts per action (so an
	// action runs at most Max+1 times). Zero disables retries.
	Max int
	// Backoff is the wait before the first re-attempt; attempt k waits
	// Backoff<<k (capped at BackoffMax). Zero re-attempts immediately.
	Backoff time.Duration
	// BackoffMax caps the exponential growth. Zero means uncapped.
	BackoffMax time.Duration
	// Jitter spreads each wait uniformly over
	// [1-Jitter/2, 1+Jitter/2) of its nominal value, derived
	// deterministically from (Seed, action id, attempt) so a seeded
	// chaos run replays byte-identical backoff schedules. Zero
	// disables jitter; 0.5 is a reasonable production value.
	Jitter float64
	// Seed feeds the deterministic jitter.
	Seed uint64
}

// wait returns the backoff before re-attempt number attempt (0-based)
// of the given action.
func (p RetryPolicy) wait(id uint64, attempt int) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	if attempt > 20 { // 2^20 × Backoff is past any sane BackoffMax
		attempt = 20
	}
	base := p.Backoff << uint(attempt)
	if p.BackoffMax > 0 && base > p.BackoffMax {
		base = p.BackoffMax
	}
	if p.Jitter <= 0 {
		return base
	}
	h := mix64(p.Seed ^ id*0x9e3779b97f4a7c15 ^ uint64(attempt)<<32)
	u := float64(h>>11) / (1 << 53)
	return time.Duration(float64(base) * (1 - p.Jitter/2 + p.Jitter*u))
}

// BreakerPolicy configures per-domain quarantine. The zero value
// disables the breaker (and the dirty-range tracking that backs its
// flush, so disabled costs nothing on the hot path).
type BreakerPolicy struct {
	// Threshold is the number of CONSECUTIVE transient failures on one
	// domain that trips its breaker. Zero disables the breaker.
	Threshold int
}

// mix64 is the SplitMix64 finalizer (jitter hashing).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// needReroute is the internal signal from runCard to runCardAction
// that the domain quarantined out from under a failing action; it
// never escapes the executor.
type needReroute struct{ cause error }

func (e *needReroute) Error() string { return fmt.Sprintf("core: needs re-route: %v", e.cause) }

// resState is the realExec's resilience configuration plus per-domain
// breaker state.
type resState struct {
	retry    RetryPolicy
	deadline time.Duration
	dom      []*domainRes
}

// domainRes is one domain's breaker: failure streak, quarantine flag,
// in-flight count for the drain handshake, and the card-dirty byte
// ranges its quarantine flush must move back to the host instances.
type domainRes struct {
	index     int
	name      string
	threshold int // 0: breaker disabled

	inflight    atomic.Int64 // card attempts currently executing
	streak      atomic.Int64 // consecutive transient failures
	quarantined atomic.Bool  // one-way: set stays set

	flushOnce sync.Once
	flushErr  error

	// mu guards dirty: the byte ranges of each buffer where the CARD
	// instance holds data the host instance does not (card computes
	// mark their writes, completed transfers in either direction
	// clear — after a ToSink the instances agree by copy-in, after a
	// ToSource by copy-out). Only these ranges are flushed at
	// quarantine; flushing whole buffers would clobber host-computed
	// data that never existed on the card.
	mu    sync.Mutex
	dirty map[*Buf]*ivset

	retries   *metrics.Counter
	deadlines *metrics.Counter
	rerouted  *metrics.Counter
	trips     *metrics.Counter
	quarGauge *metrics.Gauge

	// emit delivers domain-level lifecycle events (trip, flush, clear)
	// to the runtime's event hook; bound once at newResState so the
	// breaker never reaches back through the runtime on a failure path.
	emit func(RuntimeEvent)
}

// newResState builds the resilience state for a Real-mode runtime.
func newResState(rt *Runtime) *resState {
	rs := &resState{
		retry:    rt.cfg.Retry,
		deadline: rt.cfg.Deadline,
		dom:      make([]*domainRes, len(rt.domains)),
	}
	for i, d := range rt.domains {
		name := d.spec.Name
		rs.dom[i] = &domainRes{
			index:     i,
			name:      name,
			threshold: rt.cfg.Breaker.Threshold,
			dirty:     make(map[*Buf]*ivset),
			retries:   rt.mets.retries.With(name),
			deadlines: rt.mets.deadline.With(name),
			rerouted:  rt.mets.rerouted.With(name),
			trips:     rt.mets.breakerTrip.With(name),
			quarGauge: rt.mets.quarantined.With(name),
			emit:      rt.emitEvent,
		}
	}
	return rs
}

// isQuarantined is the hot-path breaker probe: one atomic load.
func (dr *domainRes) isQuarantined() bool { return dr.quarantined.Load() }

// succeed resets the failure streak and, with the breaker enabled,
// updates the domain's card-dirty range tracking for the completed
// action. Runs while the action is still counted in dr.inflight, so
// it is serialized against the quarantine flush.
func (dr *domainRes) succeed(a *Action) {
	if dr.threshold <= 0 {
		return
	}
	if dr.streak.Load() != 0 {
		dr.streak.Store(0)
	}
	dr.mu.Lock()
	switch a.kind {
	case ActCompute:
		for _, o := range a.ops {
			if o.Acc.writes() {
				dr.dirtySet(o.Buf).add(o.Off, o.Off+o.Len)
			}
		}
	case ActXferToSink, ActXferToSrc:
		o := a.ops[0]
		if s := dr.dirty[o.Buf]; s != nil {
			s.remove(o.Off, o.Off+o.Len)
		}
	}
	dr.mu.Unlock()
}

// dirtySet resolves (or creates) a buffer's dirty-range set; caller
// holds dr.mu.
func (dr *domainRes) dirtySet(b *Buf) *ivset {
	s := dr.dirty[b]
	if s == nil {
		s = &ivset{}
		dr.dirty[b] = s
	}
	return s
}

// forget drops b's card-dirty ranges in every domain. Reclamation calls
// it before destroying b's instances, so no later quarantine flush
// reads a reclaimed buffer, and the maps do not keep it reachable.
func (rs *resState) forget(b *Buf) {
	for _, dr := range rs.dom {
		dr.mu.Lock()
		delete(dr.dirty, b)
		dr.mu.Unlock()
	}
}

// fail records one transient failure; at Threshold consecutive
// failures it trips the breaker (exactly once).
func (dr *domainRes) fail() {
	if dr.threshold <= 0 {
		return
	}
	if dr.streak.Add(1) >= int64(dr.threshold) {
		if !dr.quarantined.Swap(true) {
			dr.trips.Inc()
			dr.quarGauge.Set(1)
			dr.emit(RuntimeEvent{Kind: EvBreakerTrip, Domain: dr.name})
		}
	}
}

// awaitFlush blocks until the quarantined domain has drained its
// in-flight card attempts and its card-dirty ranges are flushed to
// the host instances. The first caller performs the flush; concurrent
// callers block inside the Once until it completes. Callers must NOT
// be counted in dr.inflight (they would deadlock the drain).
func (dr *domainRes) awaitFlush(re *realExec) error {
	dr.flushOnce.Do(func() {
		for dr.inflight.Load() != 0 {
			time.Sleep(20 * time.Microsecond)
		}
		dr.flushErr = dr.flush(re)
		ev := RuntimeEvent{Kind: EvQuarantineFlush, Domain: dr.name}
		if dr.flushErr != nil {
			ev.Err = dr.flushErr.Error()
		}
		dr.emit(ev)
	})
	return dr.flushErr
}

// flushRetryMax bounds the flush's own DMA retries — the quarantined
// link may still be faulting, and the flush is the last chance to
// rescue card-side data.
const flushRetryMax = 16

// flush copies every card-dirty byte range back to the host
// instances. In-flight drain already serialized us against card
// attempts; dr.mu serializes against late succeed bookkeeping.
func (dr *domainRes) flush(re *realExec) error {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	var firstErr error
	for b, set := range dr.dirty {
		// A card compute wrote these ranges, so the instance exists.
		cb, _ := b.card(dr.index)
		for _, iv := range set.ivs {
			var err error
			for att := 0; ; att++ {
				if err = re.injectTransfer(dr.index, 1); err == nil {
					_, err = cb.Read(int(iv.lo), b.host[iv.lo:iv.hi])
				}
				if err == nil || !fault.IsTransient(err) || att >= flushRetryMax {
					break
				}
				if w := re.res.retry.wait(uint64(iv.lo)|1, att); w > 0 {
					time.Sleep(w)
				}
			}
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("core: quarantine flush of %s[%d:+%d) from %s: %w",
					b.name, iv.lo, iv.hi-iv.lo, dr.name, err)
			}
		}
	}
	dr.dirty = nil
	return firstErr
}

// ivset is a sorted, disjoint set of half-open byte intervals — the
// card-dirty range tracking behind the quarantine flush. Operations
// are O(n) in the interval count, which stays tiny (operand ranges
// coalesce aggressively).
type ivset struct {
	ivs []byteiv
}

type byteiv struct{ lo, hi int64 }

// add unions [lo,hi) into the set, coalescing neighbors.
func (s *ivset) add(lo, hi int64) {
	if lo >= hi {
		return
	}
	out := make([]byteiv, 0, len(s.ivs)+1)
	inserted := false
	for _, iv := range s.ivs {
		switch {
		case iv.hi < lo: // strictly left
			out = append(out, iv)
		case hi < iv.lo: // strictly right
			if !inserted {
				out = append(out, byteiv{lo, hi})
				inserted = true
			}
			out = append(out, iv)
		default: // touching or overlapping: absorb
			if iv.lo < lo {
				lo = iv.lo
			}
			if iv.hi > hi {
				hi = iv.hi
			}
		}
	}
	if !inserted {
		out = append(out, byteiv{lo, hi})
	}
	s.ivs = out
}

// remove subtracts [lo,hi) from the set.
func (s *ivset) remove(lo, hi int64) {
	if lo >= hi {
		return
	}
	out := make([]byteiv, 0, len(s.ivs)+1)
	for _, iv := range s.ivs {
		if iv.hi <= lo || hi <= iv.lo { // disjoint
			out = append(out, iv)
			continue
		}
		if iv.lo < lo {
			out = append(out, byteiv{iv.lo, lo})
		}
		if hi < iv.hi {
			out = append(out, byteiv{hi, iv.hi})
		}
	}
	s.ivs = out
}

// total returns the summed length of the set (test helper).
func (s *ivset) total() int64 {
	var n int64
	for _, iv := range s.ivs {
		n += iv.hi - iv.lo
	}
	return n
}
