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
// stream; cross-stream edges are explicit events). Every record
// carries a sequence stamp in the order it entered the set:
//
//   - w: the last-writer intervals of the buffer, disjoint and sorted
//     by offset. A write replaces the overlapped parts of older
//     intervals with itself, so an operand finds its overlap by
//     binary search and w holds at most one record per gap between
//     distinct operand boundaries.
//   - r: one record per read operand, with its original range, in
//     stamp order. Reader records are never split: a reader R is
//     still live at byte x iff no last-writer record newer than R
//     covers x.
//
// A read depends on every overlapping last writer (RAW) and appends
// its record. A write depends on every overlapping last writer (WAW)
// and on every incomplete reader R with some byte of the overlap not
// covered by a last writer newer than R (WAR), then replaces the
// overlapped writers. This is the per-byte "last writer, and the
// readers since" rule evaluated per record. Along each byte's chain of
// accesses it omits every edge the chain already implies (e.g. third
// writer → first writer), so the FIFO semantic — and the critical
// path the flight recorder reconstructs from the recorded edges — are
// preserved exactly. It is not a full transitive reduction: a write
// still links behind every live reader of its bytes, even when one
// reader already reaches the others through a chain on other bytes.
//
// Records of completed actions are dropped wherever a query meets
// them, and r is swept of them whenever it doubles; a reader record
// goes too once one write covers it whole. A completed writer's
// record may go although it still masks older readers: a write W of
// bytes a reader R read before links behind R or behind a writer that
// does, so W completes after R, and once W has completed so has every
// reader its record masked. Dropping clears the slot, and
// so does an epoch reset, so the index pins no retired action beyond
// the records it still holds. A read costs O(log |w| + writers
// overlapped) plus an append; a write costs the same plus one pass
// over r, and one shift of the records after it when it adds a
// boundary. No query's cost depends on how often the ranges it meets
// were cut. The differential property test (depindex_test.go) checks
// the produced edge set against an independent per-cell
// last-writer/live-reader model, and the transitive closure of the
// edges against that of the all-pairs hazard set.
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

// opIval is one operand interval owned by an action; seq orders the
// records of one interval set.
type opIval struct {
	off, end int64
	seq      uint64
	act      *Action
}

// bufIvals is the per-(stream, buffer) interval set. Guarded by the
// stream's lock.
type bufIvals struct {
	epoch  uint64
	seq    uint64   // stamp of the newest record
	w      []opIval // last-writer intervals, disjoint, sorted by off
	r      []opIval // reader records, in seq order
	rSweep int      // len(r) that triggers the next dead-record sweep
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
		clear(iv.w)
		clear(iv.r)
		iv.w, iv.r = iv.w[:0], iv.r[:0]
		iv.rSweep = 0
	}
	return iv
}

// depScan registers the dependences of operand o of action a against
// the stream's index and inserts a's own record. addDep must tolerate
// repeated calls with the same predecessor. Caller holds s.mu.
func (s *Stream) depScan(a *Action, o Operand, addDep func(*Action)) {
	if o.Len <= 0 {
		return // empty ranges touch nothing (Operand.overlaps)
	}
	iv := s.indexFor(o.Buf)
	lo, hi := o.Off, o.Off+o.Len
	iv.seq++
	if o.Acc.writes() {
		iv.write(opIval{off: lo, end: hi, seq: iv.seq, act: a}, addDep)
		return
	}
	// RAW with every overlapped last writer; the writers stay (they
	// remain last writer for their bytes).
	i := iv.search(lo)
	k, j := i, i
	for ; j < len(iv.w) && iv.w[j].off < hi; j++ {
		if n := iv.w[j]; !n.act.completed() {
			addDep(n.act)
			iv.w[k] = n
			k++
		}
	}
	iv.w = cut(iv.w, k, j)
	iv.r = append(iv.r, opIval{off: lo, end: hi, seq: iv.seq, act: a})
	// A write drops the readers it meets, but a read-heavy buffer
	// would otherwise grow r without bound; sweep completed owners
	// amortized-O(1) when the list doubles.
	if len(iv.r) >= iv.rSweep {
		live := iv.r[:0]
		for _, n := range iv.r {
			if !n.act.completed() {
				live = append(live, n)
			}
		}
		iv.r = cut(iv.r, len(live), len(iv.r))
		iv.rSweep = 2*len(live) + 16
	}
}

// search returns the index of the first last-writer record ending
// after lo. The halving loop keeps its one comparison free of
// branches.
func (iv *bufIvals) search(lo int64) int {
	w := iv.w
	if len(w) == 0 {
		return 0
	}
	base, n := 0, len(w)
	for n > 1 {
		half := n / 2
		if w[base+half-1].end <= lo {
			base += half
		}
		n -= half
	}
	if w[base].end <= lo {
		base++
	}
	return base
}

// write links n (a write record) behind the overlapped last writers
// (WAW) and the readers still live on some overlapped byte (WAR),
// drops the reader records n covers and the completed ones it meets,
// and makes n the last writer of its range.
func (iv *bufIvals) write(n opIval, addDep func(*Action)) {
	lo, hi := n.off, n.end
	i := iv.search(lo)
	j := i
	for ; j < len(iv.w) && iv.w[j].off < hi; j++ {
		if p := iv.w[j].act; !p.completed() {
			addDep(p)
		}
	}
	// A reader's walk over these records stops at its first live
	// byte, and the write leaves at most three records where they
	// were, so over a run the walks cost amortized O(1) per reader
	// record per write.
	over := iv.w[i:j]
	live := iv.r[:0]
	for _, r := range iv.r {
		if r.act.completed() {
			continue
		}
		if r.end > lo && r.off < hi {
			if liveIn(over, r, lo, hi) {
				addDep(r.act)
			}
			if r.off >= lo && r.end <= hi {
				continue // every byte of r now has a newer writer
			}
		}
		live = append(live, r)
	}
	iv.r = cut(iv.r, len(live), len(iv.r))
	iv.rSweep = 2*len(live) + 16

	// Replace over by the surviving outer parts of its first and last
	// records around n. Slots are assigned one by one: a typed copy
	// of a record would take the bulk write-barrier path.
	if j == i+1 && iv.w[i].off == lo && iv.w[i].end == hi {
		iv.w[i] = n // the common case: a rewrite of the same range
		return
	}
	var repl [3]opIval
	m := 0
	if j > i {
		if f := iv.w[i]; f.off < lo && !f.act.completed() {
			f.end = lo
			repl[m] = f
			m++
		}
	}
	repl[m] = n
	m++
	if j > i {
		if l := iv.w[j-1]; l.end > hi && !l.act.completed() {
			l.off = hi
			repl[m] = l
			m++
		}
	}
	if d := m - (j - i); d > 0 {
		iv.w = append(iv.w, repl[:d]...)
		copy(iv.w[j+d:], iv.w[j:])
	} else if d < 0 {
		iv.w = cut(iv.w, i+m, j)
	}
	for k := 0; k < m; k++ {
		iv.w[i+k] = repl[k]
	}
}

// liveIn reports whether reader r has a byte in [lo, hi) that no
// record of over (the sorted writers overlapping [lo, hi)) newer than
// r covers.
func liveIn(over []opIval, r opIval, lo, hi int64) bool {
	a, b := max(r.off, lo), min(r.end, hi)
	cur := a
	for _, p := range over {
		if p.end <= a {
			continue
		}
		if p.off >= b {
			break
		}
		if p.off > cur || p.seq < r.seq {
			return true
		}
		cur = p.end
	}
	return cur < b
}

// cut removes list[i:j], shifting the tail down and zeroing the
// vacated slots so the backing array pins no retired action.
func cut(list []opIval, i, j int) []opIval {
	if i == j {
		return list
	}
	n := copy(list[i:], list[j:])
	clear(list[i+n:])
	return list[:i+n]
}
