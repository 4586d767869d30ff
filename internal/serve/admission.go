package serve

import (
	"context"
	"fmt"
	"time"

	"hstreams/internal/core"
	"hstreams/internal/platform"
)

// strideScale is the stride numerator: a tenant of weight w advances
// its pass by strideScale/w per dispatched action, so relative
// dispatch rates equal relative weights regardless of absolute
// magnitudes.
const strideScale = 1 << 20

// submission is one submitter's place in its tenant's pending queue.
// Whoever pops it — grantLocked, or Unregister shedding the queue —
// sets st or err and closes wake, under s.mu.
type submission struct {
	enq  time.Time
	st   *core.Stream  // granted: the stream to enqueue into (nil in shadow mode)
	err  error         // shed: the tenant was deleted first
	wake chan struct{} // the submitter's one wake-up
}

// SubmitRequest describes one compute action a tenant submits.
type SubmitRequest struct {
	// Kernel names a registered kernel.
	Kernel string
	// Args are the kernel's scalar arguments.
	Args []int64
	// Ops are the action's memory operands (resolved tenant buffers).
	Ops []core.Operand
}

// Submit admits one compute action for the tenant, waits for its
// fair-share turn at an in-service slot, and enqueues it into a tenant
// stream on the caller's goroutine. With a slot free the turn is
// granted at once and Submit never parks. Submit starts no goroutine:
// the slot comes back from the stream's retire hook when the action
// retires. The returned action is the completion event; it is nil in
// shadow mode, where dispatch is the completion. When the tenant's
// pending queue is at MaxPending, Submit blocks (OnFull "block",
// honoring ctx cancellation) or fails fast with ErrPendingFull (OnFull
// "shed").
func (s *Server) Submit(ctx context.Context, tenant string, req SubmitRequest) (*core.Action, error) {
	s.mu.Lock()
	t, ok := s.tenants[tenant]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNoTenant, tenant)
	}
	for {
		if s.closed {
			s.mu.Unlock()
			return nil, ErrClosed
		}
		if t.closing {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrTenantClosing, tenant)
		}
		if len(t.pending) < t.q.MaxPending {
			break
		}
		if t.q.OnFull == "shed" {
			// Counted under s.mu, so a concurrent Unregister cannot
			// delete the tenant's rows first and see this one return.
			s.mets.shed.With(tenant, "pending-full").Inc()
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %q at %d", ErrPendingFull, tenant, t.q.MaxPending)
		}
		if err := ctx.Err(); err != nil {
			s.mu.Unlock()
			return nil, err
		}
		// Blocking backpressure: wait for queue space. The AfterFunc
		// broadcast is registered under s.mu, so a cancellation cannot
		// slip between the Err check above and the Wait below.
		stop := context.AfterFunc(ctx, func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		s.cond.Wait()
		stop()
	}
	if len(t.pending) == 0 && t.inflight == 0 && t.pass < s.gpass {
		// Newly busy: an idle tenant banks no credit against the
		// tenants that kept the server busy meanwhile.
		t.pass = s.gpass
	}
	sub := &submission{enq: time.Now(), wake: make(chan struct{})}
	t.pending = append(t.pending, sub)
	t.mPending.Set(int64(len(t.pending)))
	s.grantLocked()
	s.mu.Unlock()
	<-sub.wake // with a slot free grantLocked closed it already: no park
	if sub.err != nil {
		return nil, sub.err
	}

	// The slot is ours until release.
	if s.opt.Shadow {
		t.mActions.Inc()
		s.release(t)
		return nil, nil
	}
	// A refused enqueue returns the slot here; an accepted action's
	// slot comes back from the retire hook (Register), which Unregister
	// (and so Close) waits for through t.inflight.
	a, err := sub.st.EnqueueCompute(req.Kernel, req.Args, req.Ops, platform.Cost{})
	if err != nil {
		s.release(t)
		return nil, err
	}
	return a, nil
}

// pickLocked returns the runnable tenant (non-empty pending queue)
// with the smallest pass — the stride scheduling rule. Ties break by
// name so the order is deterministic. Caller holds s.mu.
func (s *Server) pickLocked() *Tenant {
	var best *Tenant
	for _, t := range s.tenants {
		if len(t.pending) == 0 {
			continue
		}
		if best == nil || t.pass < best.pass ||
			(t.pass == best.pass && t.name < best.name) {
			best = t
		}
	}
	return best
}

// grantLocked is admission. While an in-service slot is free and some
// tenant has pending work it pops the minimum-pass tenant's oldest
// submission, charges the stride, picks the tenant's next stream
// (round-robin over the group) and wakes the submitter. It runs under
// s.mu at the only two events that can change its answer — a new
// submission and a released slot — so a free slot never coexists with
// pending work and grants leave in stride order. Under saturation every
// tenant always has pending work, so grant counts — and therefore
// completed-action throughput — converge to the weight ratios.
func (s *Server) grantLocked() {
	for s.free > 0 {
		t := s.pickLocked()
		if t == nil {
			return
		}
		sub := t.pending[0]
		copy(t.pending, t.pending[1:])
		t.pending[len(t.pending)-1] = nil
		t.pending = t.pending[:len(t.pending)-1]
		t.pass += strideScale / float64(t.q.Weight)
		s.gpass = t.pass
		s.free--
		t.inflight++
		t.mPending.Set(int64(len(t.pending)))
		t.mInflight.Set(int64(t.inflight))
		t.mWait.Observe(time.Since(sub.enq))
		if !s.opt.Shadow {
			sub.st = t.streams[t.next%len(t.streams)]
			t.next++
		}
		close(sub.wake)
	}
}

// release returns an in-service slot, grants it onward, and wakes the
// cond waiters: a block-policy Submit after the pending space a grant
// frees, an Unregister after the tenant's in-service work.
func (s *Server) release(t *Tenant) {
	s.mu.Lock()
	s.free++
	t.inflight--
	t.mInflight.Set(int64(t.inflight))
	s.grantLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
}
