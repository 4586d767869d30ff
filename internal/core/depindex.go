package core

// Operand-interval dependence index.
//
// The seed scheduler discovered dependences with an all-pairs scan:
// every enqueue compared the new action's operands against every
// operand of every incomplete action in the stream — O(window × ops²)
// under one global lock, which made the scheduler itself the serial
// bottleneck the paper's multi-stream scaling (Fig. 6/9) is supposed
// to avoid. The index replaces the scan with per-buffer interval
// bookkeeping, per stream (dependences only ever form within a
// stream; cross-stream edges are explicit events):
//
//   - w: the live last-writer intervals of the buffer — disjoint by
//     construction, because a new write carves away the overlapped
//     parts of older intervals.
//   - r: the live reader intervals since the last write of those
//     bytes; they may overlap each other (RAR is not a hazard).
//
// A write depends on (and carves away) every overlapping last-writer
// (WAW) and live-reader (WAR) interval; a read depends on every
// overlapping last-writer interval (RAW) and adds itself to r. Along
// each byte's chain of accesses this omits every edge the chain
// already implies (e.g. third writer → first writer), so the FIFO
// semantic — and the critical path the flight recorder reconstructs
// from the recorded edges — are preserved exactly. It is not a full
// transitive reduction: a write still links behind every live reader
// of its bytes, even when one reader already reaches the others
// through a chain on other bytes. The differential property test
// (depindex_test.go) checks the produced edge set against an
// independent per-cell last-writer/live-reader model, and the
// transitive closure of the edges against that of the all-pairs
// hazard set.
//
// Sync actions never enter the index. A sync orders against every
// incomplete action, but links only behind the stream's frontier (the
// incomplete actions no later action of the stream depends on, kept
// by enqueue and finish): every other incomplete action reaches a
// frontier member through same-stream edges. Enqueueing a sync bumps
// the stream's epoch counter: interval sets whose epoch is stale are
// reset lazily on next touch, because everything they describe is
// dominated by the barrier. Actions enqueued after a sync depend on
// it directly (and on nothing older) while it is incomplete.

// opIval is one live operand interval owned by an incomplete action.
type opIval struct {
	off, end int64
	act      *Action
}

// bufIvals is the per-(stream, buffer) interval set. Guarded by the
// stream's lock.
type bufIvals struct {
	epoch  uint64
	w      []opIval // last-writer intervals, mutually disjoint
	r      []opIval // live reader intervals since the last write
	rSweep int      // len(r) that triggers the next dead-node sweep
}

// indexFor returns the stream's interval set for b, resetting it if a
// sync barrier superseded its epoch. Caller holds s.mu.
func (s *Stream) indexFor(b *Buf) *bufIvals {
	iv := s.index[b]
	if iv == nil {
		iv = &bufIvals{epoch: s.epoch}
		s.index[b] = iv
		return iv
	}
	if iv.epoch != s.epoch {
		iv.epoch = s.epoch
		iv.w = iv.w[:0]
		iv.r = iv.r[:0]
		iv.rSweep = 0
	}
	return iv
}

// depScan registers the dependences of operand o of action a against
// the stream's index and inserts a's own interval. addDep must
// tolerate repeated calls with the same predecessor. Caller holds
// s.mu.
func (s *Stream) depScan(a *Action, o Operand, addDep func(*Action)) {
	if o.Len <= 0 {
		return // empty ranges touch nothing (Operand.overlaps)
	}
	iv := s.indexFor(o.Buf)
	lo, hi := o.Off, o.Off+o.Len
	if o.Acc.writes() {
		// WAW with overlapped last writers, WAR with overlapped live
		// readers; both are superseded for the overlapped bytes —
		// later accesses order against this write, and against the
		// carved-away remainder transitively.
		iv.w = carve(iv.w, lo, hi, addDep)
		iv.r = carve(iv.r, lo, hi, addDep)
		iv.w = append(iv.w, opIval{off: lo, end: hi, act: a})
		return
	}
	// RAW with every overlapped last writer; the writers stay (they
	// remain last writer for their bytes).
	for i := 0; i < len(iv.w); {
		n := &iv.w[i]
		if n.act.completed() {
			iv.w[i] = iv.w[len(iv.w)-1]
			iv.w = iv.w[:len(iv.w)-1]
			continue
		}
		if n.end > lo && n.off < hi {
			addDep(n.act)
		}
		i++
	}
	iv.r = append(iv.r, opIval{off: lo, end: hi, act: a})
	// Reader intervals are only removed when a write carves them, so
	// a read-heavy stream would otherwise grow r without bound; sweep
	// completed owners amortized-O(1) when the list doubles.
	if len(iv.r) >= iv.rSweep {
		live := iv.r[:0]
		for _, n := range iv.r {
			if !n.act.completed() {
				live = append(live, n)
			}
		}
		clearTail(iv.r, len(live))
		iv.r = live
		iv.rSweep = 2*len(live) + 16
	}
}

// carve visits every interval of list overlapping [lo, hi), reports
// its owner to dep, and removes the overlapped bytes — splitting
// intervals that stick out on both sides. Intervals whose owner has
// completed are dropped without a dep (completed predecessors impose
// no order). Returns the updated list.
func carve(list []opIval, lo, hi int64, dep func(*Action)) []opIval {
	for i := 0; i < len(list); {
		n := list[i]
		if n.act.completed() {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			continue
		}
		if n.end <= lo || n.off >= hi {
			i++
			continue
		}
		dep(n.act)
		left, right := n.off < lo, n.end > hi
		switch {
		case left && right:
			list[i].end = lo
			list = append(list, opIval{off: hi, end: n.end, act: n.act})
			i++
		case left:
			list[i].end = lo
			i++
		case right:
			list[i].off = hi
			i++
		default:
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
		}
	}
	return list
}

// clearTail zeroes list[n:] so swap-compaction does not pin retired
// actions through the backing array.
func clearTail(list []opIval, n int) {
	for i := n; i < len(list); i++ {
		list[i] = opIval{}
	}
}
