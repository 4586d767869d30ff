package core

// progress.go is the stall watchdog's view of the runtime: a cheap
// per-stream progress snapshot (retirement counter, launched/pending
// split of the inflight window, breaker state) that internal/health
// polls on the sampler tick to distinguish dep-stall, link
// saturation, quarantined-domain backlog and true deadlock.

import (
	"sort"
	"time"
)

// maxProgressScan bounds the inflight-window scan per stream so a deep
// queue cannot make a watchdog tick expensive; Truncated reports when
// the bound was hit (the depth and retirement counters are exact
// regardless).
const maxProgressScan = 1024

// StreamProgress is a point-in-time progress snapshot of one stream.
type StreamProgress struct {
	// Stream and Domain name the stream and its sink domain.
	Stream string `json:"stream"`
	Domain string `json:"domain"`
	// Quarantined reports the sink domain's breaker state (always
	// false in Sim mode, which has no resilience machinery).
	Quarantined bool `json:"quarantined,omitempty"`
	// Depth is the enqueued-but-incomplete action count.
	Depth int64 `json:"depth"`
	// Retired counts actions the stream has completed since Init —
	// monotonic, so an unchanged value across a horizon with Depth > 0
	// is the watchdog's stall signal.
	Retired uint64 `json:"retired"`
	// Launched and Pending split the scanned inflight window: actions
	// handed to the executor versus actions still gated on
	// dependences. A stalled stream with Launched == 0 is blocked in
	// the dependence graph; with Launched > 0 the executor itself is
	// not making progress.
	Launched int `json:"launched"`
	Pending  int `json:"pending"`
	// Truncated reports that the window scan stopped at
	// maxProgressScan actions.
	Truncated bool `json:"truncated,omitempty"`
	// OldestAction is the id of the oldest incomplete action (zero
	// when the window is empty or the scan saw none) — the
	// flight-recorder span to chase when this stream stalls — and
	// OldestAge its age on the runtime clock.
	OldestAge    time.Duration `json:"oldest_age,omitempty"`
	OldestAction uint64        `json:"oldest_action,omitempty"`
}

// Progress snapshots every stream's progress state, taking each
// stream's lock in turn — never more than one at once, like Status —
// so it is safe from any goroutine while the runtime works. Streams
// are returned in name order for deterministic reports.
func (rt *Runtime) Progress() []StreamProgress {
	var now time.Duration
	if se, ok := rt.exec.(*simExec); ok {
		se.mu.Lock()
		now = se.hostTime
		se.mu.Unlock()
	} else {
		now = rt.exec.now()
	}
	var quarantined func(di int) bool
	if re, ok := rt.exec.(*realExec); ok {
		quarantined = func(di int) bool { return re.res.dom[di].isQuarantined() }
	}
	rt.mu.Lock()
	streams := append([]*Stream(nil), rt.streams...)
	rt.mu.Unlock()
	out := make([]StreamProgress, 0, len(streams))
	for _, s := range streams {
		sp := StreamProgress{
			Stream:  s.name,
			Domain:  s.domain.spec.Name,
			Depth:   s.ndepth.Load(),
			Retired: uint64(s.met.retired.Value()),
		}
		if quarantined != nil {
			sp.Quarantined = quarantined(s.domain.index)
		}
		s.mu.Lock()
		n := len(s.inflight)
		if n > maxProgressScan {
			n = maxProgressScan
			sp.Truncated = true
		}
		for _, a := range s.inflight[:n] {
			if a.state.Load() == stateLaunched {
				sp.Launched++
			} else {
				sp.Pending++
			}
			if sp.OldestAction == 0 || a.rec.ID < sp.OldestAction {
				sp.OldestAction = a.rec.ID
				sp.OldestAge = now - a.rec.Enqueue
			}
		}
		s.mu.Unlock()
		out = append(out, sp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stream < out[j].Stream })
	return out
}
