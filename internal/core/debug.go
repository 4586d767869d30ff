package core

import (
	"sort"
	"sync"
	"time"

	"hstreams/internal/fabric"
)

// Live-runtime registry: Init registers, Fini unregisters. It serves
// hsbench, whose figure runtimes are built inside the workload
// packages: a health engine with no Options.Runtimes polls
// LiveRuntimes, so hsbench's watchdog and /debug/streams see every
// figure runtime while it runs. A process that owns its runtimes
// (hsserve) hands them to the engine instead.
var (
	liveMu   sync.Mutex
	liveRuns = make(map[*Runtime]struct{})
)

func registerLive(rt *Runtime) {
	liveMu.Lock()
	liveRuns[rt] = struct{}{}
	liveMu.Unlock()
}

func unregisterLive(rt *Runtime) {
	liveMu.Lock()
	delete(liveRuns, rt)
	liveMu.Unlock()
}

// LiveRuntimes returns every initialized-but-not-finalized runtime in
// the process, ordered by run id (Init order).
func LiveRuntimes() []*Runtime {
	liveMu.Lock()
	out := make([]*Runtime, 0, len(liveRuns))
	for rt := range liveRuns {
		out = append(out, rt)
	}
	liveMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].runID < out[j].runID })
	return out
}

// ActionStatus is a point-in-time view of one incomplete action.
type ActionStatus struct {
	ID      uint64        `json:"id"`
	Kind    string        `json:"kind"`
	Label   string        `json:"label,omitempty"`
	State   string        `json:"state"` // "pending" | "launched"
	Pending int           `json:"pending_deps"`
	Enqueue time.Duration `json:"enqueue"`
	Age     time.Duration `json:"age"`
}

// StreamStatus is a point-in-time view of one stream's queue: the
// debug server serves it in /debug/streams and the health watchdog
// polls it for stalls.
type StreamStatus struct {
	Name      string `json:"name"`
	Domain    string `json:"domain"`
	Destroyed bool   `json:"destroyed,omitempty"`
	// Quarantined reports the sink domain's breaker state (always
	// false in Sim mode, which has no resilience machinery).
	Quarantined bool `json:"quarantined,omitempty"`
	// Depth is the enqueued-but-incomplete action count.
	Depth int `json:"depth"`
	// Retired counts the stream's completed actions — monotonic and
	// private to the runtime, so an unchanged value across a horizon
	// with Depth > 0 is the watchdog's stall signal.
	Retired uint64 `json:"retired"`
	// Launched and Pending split the scanned window: actions handed to
	// the executor versus actions gated on dependences, so a stalled
	// stream with Launched == 0 is blocked in the dependence graph.
	// Truncated reports that the scan stopped at maxStatusScan actions.
	Launched  int  `json:"launched"`
	Pending   int  `json:"pending"`
	Truncated bool `json:"truncated,omitempty"`
	// OldestAction is the id of the oldest scanned incomplete action
	// (zero when the window is empty) — the flight-recorder span to
	// chase when this stream stalls.
	OldestAction uint64 `json:"oldest_action,omitempty"`
	// Inflight details the oldest scanned actions in id order, at most
	// maxInflightStatus of them.
	Inflight []ActionStatus `json:"inflight,omitempty"`
}

// RuntimeStatus is a point-in-time view of one runtime: its clock, its
// outstanding-action count (the sum of the streams' depths), every
// live stream's incomplete window and its link traffic. The debug
// server serves it as /debug/streams.
type RuntimeStatus struct {
	Run         uint64            `json:"run"`
	Mode        string            `json:"mode"`
	Now         time.Duration     `json:"now"`
	Outstanding int               `json:"outstanding"`
	Finalized   bool              `json:"finalized,omitempty"`
	Err         string            `json:"err,omitempty"`
	Streams     []StreamStatus    `json:"streams"`
	Links       []fabric.LinkStat `json:"links,omitempty"`
}

// LinkStats snapshots the fabric's per-link ledger, ordered by
// (src, dst): card transfers in both modes (Real mode's moved bytes,
// Sim mode's modeled ones) and, in Real mode, COI's control messages.
// The debug server serves it in /debug/streams.
func (rt *Runtime) LinkStats() []fabric.LinkStat { return rt.fab.LinkStats() }

// maxStatusScan bounds the window scan per stream, so a deep queue
// cannot make a snapshot — a watchdog tick — expensive; the depth and
// retirement counts are exact regardless. maxInflightStatus bounds the
// per-stream action detail, so it cannot balloon the debug response.
const (
	maxStatusScan     = 1024
	maxInflightStatus = 64
)

// Status snapshots the runtime, taking each stream's lock in turn —
// never more than one at once. It is safe to call from any goroutine
// while the runtime works — in Sim mode "now" is the locked host
// clock, never the engine clock, which only the pumping host goroutine
// may read.
func (rt *Runtime) Status() RuntimeStatus {
	var now time.Duration
	if se, ok := rt.exec.(*simExec); ok {
		se.mu.Lock()
		now = se.hostTime
		se.mu.Unlock()
	} else {
		now = rt.exec.now()
	}
	re, _ := rt.exec.(*realExec)
	st := RuntimeStatus{
		Run:       rt.runID,
		Mode:      rt.cfg.Mode.String(),
		Now:       now,
		Finalized: rt.finalized.Load(),
		Links:     rt.LinkStats(),
	}
	rt.mu.Lock()
	streams := rt.streams
	if rt.firstErr != nil {
		st.Err = rt.firstErr.Error()
	}
	rt.mu.Unlock()
	for _, s := range streams {
		ss := StreamStatus{Name: s.name, Domain: s.domain.spec.Name}
		if re != nil {
			ss.Quarantined = re.res.dom[s.domain.index].isQuarantined()
		}
		// inflight is unordered (swap retirement): one bounded pass
		// counts the window and keeps the oldest actions by insertion
		// into the id-ordered oldest[:n].
		var oldest [maxInflightStatus]*Action
		n := 0
		s.mu.Lock()
		ss.Destroyed = s.destroyed
		ss.Depth = len(s.inflight)
		st.Outstanding += ss.Depth
		ss.Retired = s.retired.Load()
		win := s.inflight
		if len(win) > maxStatusScan {
			win = win[:maxStatusScan]
			ss.Truncated = true
		}
		for _, a := range win {
			if a.state.Load() == stateLaunched {
				ss.Launched++
			} else {
				ss.Pending++
			}
			if n == len(oldest) {
				if a.rec.ID > oldest[n-1].rec.ID {
					continue
				}
				n--
			}
			i := n
			for ; i > 0 && oldest[i-1].rec.ID > a.rec.ID; i-- {
				oldest[i] = oldest[i-1]
			}
			oldest[i] = a
			n++
		}
		s.mu.Unlock()
		if n > 0 {
			ss.OldestAction = oldest[0].rec.ID
			ss.Inflight = make([]ActionStatus, n)
		}
		for i, a := range oldest[:n] {
			state := "pending"
			if a.state.Load() == stateLaunched {
				state = "launched"
			}
			ss.Inflight[i] = ActionStatus{
				ID:      a.rec.ID,
				Kind:    a.kind.String(),
				Label:   a.rec.Label(),
				State:   state,
				Pending: int(a.npend.Load()),
				Enqueue: a.rec.Enqueue,
				Age:     now - a.rec.Enqueue,
			}
		}
		st.Streams = append(st.Streams, ss)
	}
	return st
}
