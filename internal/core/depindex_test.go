package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hstreams/internal/metrics"
	"hstreams/internal/platform"
	"hstreams/internal/trace"
)

// Differential property test for the operand-interval dependence
// index: randomized multi-stream programs with overlapping, adjacent
// and disjoint operand ranges run through the real scheduler, and the
// captured dependence edges (trace.Dep kinds included) are compared
// against an independent per-byte last-writer/live-reader reference
// model — the retained naive scan, evaluated cell by cell rather than
// interval by interval, so the two implementations share no code.
//
// The index emits fewer edges than the seed's full hazard edge set
// (reduced along each byte's chain of accesses; syncs link behind the
// stream's frontier only), so equality is asserted at three levels:
//
//   - edge-exact against the reference model, which implements the
//     same reduced rule independently (per byte instead of per
//     interval), in runs where nothing completes during the enqueue
//     phase — Sim mode (the engine is only pumped during waits and
//     window drains, and programs stay below the drain threshold) and
//     Real mode with gate-blocked streams (every action roots at an
//     incomplete gate kernel, so the inflight window only grows);
//   - order-exact in Sim mode: per stream, the transitive closure of
//     the captured edges equals that of the naive all-pairs hazard
//     set, whichever edges are materialized;
//   - containment plus dynamic FIFO-semantic checks in free-running
//     Real mode with one concurrent source per stream, where
//     completions race enqueues and prune edges nondeterministically:
//     every captured edge must be legal under the full naive hazard
//     relation, and every naive-hazard pair must have executed in
//     order (pred.end ≤ succ.start on the executor clock).

// diffOp is one operand in generator coordinates (buffer index).
type diffOp struct {
	buf     int
	off, ln int64
	acc     Access
}

// diffAct is one program step.
type diffAct struct {
	stream int
	kind   ActKind
	dir    XferDir
	ops    []diffOp
	extra  []int // prog indices of explicit event deps
	gate   bool  // first act per stream; whole-range InOut on all bufs
}

// diffProg is a randomized multi-stream program.
type diffProg struct {
	nStreams int
	nBufs    int
	bufSize  int64
	acts     []diffAct
}

const diffQuantum = 8 // operand offsets/lengths land on multiples of this

// genDiffProg builds a random program: per stream a leading gate
// action, then a mix of computes (1–3 operands, random access modes),
// transfers, markers, event-waits and computes with explicit deps.
// Operand ranges are quantized so overlapping, exactly-adjacent and
// disjoint pairs all occur often. sameStreamExtras restricts explicit
// deps to the enqueuing stream (required when streams are driven by
// concurrent sources — a cross-stream handle may not exist yet).
func genDiffProg(r *rand.Rand, nStreams, perStream int, sameStreamExtras bool) *diffProg {
	p := &diffProg{nStreams: nStreams, nBufs: 2 * nStreams, bufSize: 64}
	nQ := int(p.bufSize / diffQuantum)
	for s := 0; s < nStreams; s++ {
		gate := diffAct{stream: s, kind: ActCompute, gate: true}
		for b := 0; b < p.nBufs; b++ {
			gate.ops = append(gate.ops, diffOp{buf: b, off: 0, ln: p.bufSize, acc: InOut})
		}
		p.acts = append(p.acts, gate)
	}
	randOp := func() diffOp {
		off := int64(r.Intn(nQ)) * diffQuantum
		ln := int64(1+r.Intn(int((p.bufSize-off)/diffQuantum))) * diffQuantum
		return diffOp{
			buf: r.Intn(p.nBufs),
			off: off,
			ln:  ln,
			acc: []Access{In, Out, InOut}[r.Intn(3)],
		}
	}
	pickExtras := func(i, s int) []int {
		var pool []int
		for j := 0; j < i; j++ {
			if !sameStreamExtras || p.acts[j].stream == s {
				pool = append(pool, j)
			}
		}
		if len(pool) == 0 {
			return nil
		}
		out := []int{pool[r.Intn(len(pool))]}
		if r.Intn(2) == 0 {
			out = append(out, pool[r.Intn(len(pool))]) // duplicates allowed
		}
		return out
	}
	for n := 0; n < nStreams*perStream; n++ {
		s := r.Intn(nStreams)
		i := len(p.acts)
		switch roll := r.Intn(100); {
		case roll < 70: // compute, sometimes with explicit deps
			a := diffAct{stream: s, kind: ActCompute, ops: []diffOp{randOp()}}
			for r.Intn(2) == 0 && len(a.ops) < 3 {
				a.ops = append(a.ops, randOp())
			}
			if roll < 7 {
				a.extra = pickExtras(i, s)
			}
			p.acts = append(p.acts, a)
		case roll < 85: // transfer
			op := randOp()
			dir := ToSink
			op.acc = Out
			if r.Intn(2) == 0 {
				dir, op.acc = ToSource, In
			}
			p.acts = append(p.acts, diffAct{stream: s, kind: ActXferToSink, dir: dir, ops: []diffOp{op}})
		case roll < 93: // marker
			p.acts = append(p.acts, diffAct{stream: s, kind: ActSync})
		default: // event-wait (marker if nothing to wait on yet)
			p.acts = append(p.acts, diffAct{stream: s, kind: ActSync, extra: pickExtras(i, s)})
		}
	}
	return p
}

// refEdges computes the expected reduced dependence-edge set of every
// program step, independently of the scheduler: per stream and buffer
// it tracks, byte by byte, the last writer and the readers since, a
// barrier id for the newest sync, and the stream's frontier — the
// prior steps no later step of the same stream has an edge to, which
// is what a sync links behind. It assumes nothing completes while the
// program is enqueued.
func refEdges(p *diffProg) []map[int]trace.DepKind {
	type cells struct {
		lastW   []int
		readers []map[int]bool
	}
	barrier := make([]int, p.nStreams)
	front := make([]map[int]bool, p.nStreams)
	state := make([]map[int]*cells, p.nStreams)
	for s := range state {
		barrier[s] = -1
		front[s] = make(map[int]bool)
		state[s] = make(map[int]*cells)
	}
	cellsFor := func(s, buf int) *cells {
		c := state[s][buf]
		if c == nil {
			c = &cells{lastW: make([]int, p.bufSize), readers: make([]map[int]bool, p.bufSize)}
			for x := range c.lastW {
				c.lastW[x] = -1
			}
			state[s][buf] = c
		}
		return c
	}
	exp := make([]map[int]trace.DepKind, len(p.acts))
	for i, a := range p.acts {
		e := make(map[int]trace.DepKind)
		add := func(j int, why trace.DepKind) {
			if j != i && j >= 0 {
				if _, ok := e[j]; !ok {
					e[j] = why
				}
			}
		}
		s := a.stream
		if a.kind == ActSync {
			for j := range front[s] {
				add(j, trace.DepSync)
			}
			barrier[s] = i
			state[s] = make(map[int]*cells) // epoch bump: all intervals dominated
		} else {
			add(barrier[s], trace.DepSync)
			for _, o := range a.ops {
				c := cellsFor(s, o.buf)
				for x := o.off; x < o.off+o.ln; x++ {
					if o.acc.writes() {
						add(c.lastW[x], trace.DepFIFO)
						for j := range c.readers[x] {
							add(j, trace.DepFIFO)
						}
						c.lastW[x] = i
						c.readers[x] = nil
					} else {
						add(c.lastW[x], trace.DepFIFO)
						if c.readers[x] == nil {
							c.readers[x] = make(map[int]bool)
						}
						c.readers[x][i] = true
					}
				}
			}
		}
		for _, j := range a.extra {
			add(j, trace.DepEvent)
		}
		for j := range e {
			if p.acts[j].stream == s {
				delete(front[s], j)
			}
		}
		front[s][i] = true
		exp[i] = e
	}
	return exp
}

// diffHarness materializes a program in a runtime and returns the
// enqueued actions, prog-index-aligned.
type diffHarness struct {
	rt      *Runtime
	streams []*Stream
	bufs    []*Buf
	actions []*Action
}

func newDiffHarness(t *testing.T, p *diffProg, mode Mode, gateFn Kernel) *diffHarness {
	t.Helper()
	rt, err := Init(Config{
		Machine: platform.HSWPlusKNC(0),
		Mode:    mode,
		Metrics: metrics.New(),
		Flight:  trace.NewFlight(1 << 12),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Fini)
	rt.RegisterKernel("nop", func(*KernelCtx) {})
	rt.RegisterKernel("gate", gateFn)
	h := &diffHarness{rt: rt, actions: make([]*Action, len(p.acts))}
	for s := 0; s < p.nStreams; s++ {
		st, err := rt.StreamCreate(rt.Host(), 2*s, 2)
		if err != nil {
			t.Fatal(err)
		}
		h.streams = append(h.streams, st)
	}
	for b := 0; b < p.nBufs; b++ {
		buf, err := rt.Alloc1D(fmt.Sprintf("d%d", b), p.bufSize)
		if err != nil {
			t.Fatal(err)
		}
		h.bufs = append(h.bufs, buf)
	}
	return h
}

// enqueueOne enqueues program step i; extra-dep handles must already
// exist in h.actions.
func (h *diffHarness) enqueueOne(t *testing.T, p *diffProg, i int) {
	t.Helper()
	a := p.acts[i]
	var extras []*Action
	for _, j := range a.extra {
		extras = append(extras, h.actions[j])
	}
	st := h.streams[a.stream]
	var act *Action
	var err error
	switch {
	case a.kind == ActSync && len(extras) > 0:
		act, err = st.EnqueueEventWait(extras...)
	case a.kind == ActSync:
		act, err = st.EnqueueMarker()
	case a.kind == ActCompute:
		name := "nop"
		if a.gate {
			name = "gate"
		}
		ops := make([]Operand, len(a.ops))
		for k, o := range a.ops {
			ops[k] = Operand{Buf: h.bufs[o.buf], Off: o.off, Len: o.ln, Acc: o.acc}
		}
		act, err = st.EnqueueComputeDeps(name, nil, ops, platform.Cost{}, extras)
	default: // transfer
		o := a.ops[0]
		act, err = st.EnqueueXferDeps(h.bufs[o.buf], o.off, o.ln, a.dir, extras)
	}
	if err != nil {
		t.Fatalf("act %d: %v", i, err)
	}
	h.actions[i] = act
}

// capturedEdges maps each action's recorded trace deps back to prog
// indices.
func (h *diffHarness) capturedEdges(t *testing.T) []map[int]trace.DepKind {
	t.Helper()
	byID := make(map[uint64]int, len(h.actions))
	for i, a := range h.actions {
		byID[a.ID()] = i
	}
	out := make([]map[int]trace.DepKind, len(h.actions))
	for i, a := range h.actions {
		e := make(map[int]trace.DepKind)
		for _, d := range a.rec.AppendDeps(nil) {
			j, ok := byID[d.ID]
			if !ok {
				t.Fatalf("act %d: dep on unknown action id %d", i, d.ID)
			}
			e[j] = d.Why
		}
		out[i] = e
	}
	return out
}

// compareExact fails on any difference between expected and captured
// edge sets, kinds included.
func compareExact(t *testing.T, p *diffProg, exp, got []map[int]trace.DepKind) {
	t.Helper()
	for i := range p.acts {
		for j, why := range exp[i] {
			gw, ok := got[i][j]
			if !ok {
				t.Errorf("act %d (%s s%d): missing dep on %d (%v)", i, p.acts[i].kind, p.acts[i].stream, j, why)
			} else if gw != why {
				t.Errorf("act %d: dep on %d has kind %v, want %v", i, j, gw, why)
			}
		}
		for j, why := range got[i] {
			if _, ok := exp[i][j]; !ok {
				t.Errorf("act %d (%s s%d): spurious dep on %d (%v)", i, p.acts[i].kind, p.acts[i].stream, j, why)
			}
		}
	}
}

// hazardDiff reports whether two program steps of one stream conflict
// under the full (unreduced) naive rule.
func hazardDiff(a, b diffAct) bool {
	if a.kind == ActSync || b.kind == ActSync {
		return true
	}
	for _, oa := range a.ops {
		for _, ob := range b.ops {
			if oa.buf == ob.buf && oa.ln > 0 && ob.ln > 0 &&
				oa.off < ob.off+ob.ln && ob.off < oa.off+oa.ln &&
				(oa.acc.writes() || ob.acc.writes()) {
				return true
			}
		}
	}
	return false
}

// checkFIFOSemantic asserts every naive-hazard pair (and every
// explicit event dep) executed in order on the executor clock — the
// dynamic form of the FIFO guarantee, independent of which edges the
// index chose to materialize.
func checkFIFOSemantic(t *testing.T, p *diffProg, acts []*Action) {
	t.Helper()
	for i := range p.acts {
		for j := 0; j < i; j++ {
			if p.acts[i].stream != p.acts[j].stream || !hazardDiff(p.acts[i], p.acts[j]) {
				continue
			}
			_, jEnd := acts[j].Times()
			iStart, _ := acts[i].Times()
			if jEnd > iStart {
				t.Errorf("FIFO violation: act %d (end %v) overlaps hazardous successor %d (start %v)",
					j, jEnd, i, iStart)
			}
		}
		for _, j := range p.acts[i].extra {
			_, jEnd := acts[j].Times()
			iStart, _ := acts[i].Times()
			if jEnd > iStart {
				t.Errorf("event-dep violation: act %d (end %v) after dependent %d start (%v)", j, jEnd, i, iStart)
			}
		}
	}
}

// sameStreamClosure returns, for every program step, the set of
// earlier steps of its stream it transitively depends on through the
// same-stream edges of edges (index: step, value: predecessors).
func sameStreamClosure(p *diffProg, edges func(i int) []int) [][]bool {
	reach := make([][]bool, len(p.acts))
	for i, a := range p.acts {
		reach[i] = make([]bool, len(p.acts))
		for _, j := range edges(i) {
			if j >= i || p.acts[j].stream != a.stream {
				continue
			}
			reach[i][j] = true
			for k, r := range reach[j] {
				reach[i][k] = reach[i][k] || r
			}
		}
	}
	return reach
}

// checkClosure asserts that, per stream, the transitive closure of the
// captured edges equals the closure of the naive all-pairs hazard set
// plus the same-stream explicit deps: whichever edges the scheduler
// materializes, the partial order they induce is the FIFO semantic's.
func checkClosure(t *testing.T, p *diffProg, got []map[int]trace.DepKind) {
	t.Helper()
	captured := sameStreamClosure(p, func(i int) []int {
		var js []int
		for j := range got[i] {
			js = append(js, j)
		}
		return js
	})
	naive := sameStreamClosure(p, func(i int) []int {
		js := append([]int(nil), p.acts[i].extra...)
		for j := 0; j < i; j++ {
			if p.acts[j].stream == p.acts[i].stream && hazardDiff(p.acts[i], p.acts[j]) {
				js = append(js, j)
			}
		}
		return js
	})
	for i := range p.acts {
		for j := range p.acts {
			if captured[i][j] != naive[i][j] {
				t.Errorf("act %d (%s s%d) after %d: captured order %v, naive hazard order %v",
					i, p.acts[i].kind, p.acts[i].stream, j, captured[i][j], naive[i][j])
			}
		}
	}
}

func TestDepIndexDifferentialSim(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			p := genDiffProg(rand.New(rand.NewSource(seed)), 4, 60, false)
			h := newDiffHarness(t, p, ModeSim, func(*KernelCtx) {})
			for i := range p.acts {
				h.enqueueOne(t, p, i)
			}
			// Nothing completed while enqueueing: the engine is pumped
			// only on waits and above-threshold drains.
			h.rt.ThreadSynchronize()
			if err := h.rt.Err(); err != nil {
				t.Fatal(err)
			}
			got := h.capturedEdges(t)
			compareExact(t, p, refEdges(p), got)
			checkClosure(t, p, got)
			checkFIFOSemantic(t, p, h.actions)
		})
	}
}

func TestDepIndexDifferentialRealGated(t *testing.T) {
	for seed := int64(10); seed < 13; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			p := genDiffProg(rand.New(rand.NewSource(seed)), 4, 40, false)
			release := make(chan struct{})
			h := newDiffHarness(t, p, ModeReal, func(*KernelCtx) { <-release })
			for i := range p.acts {
				h.enqueueOne(t, p, i)
			}
			// Every stream's actions root at its gate, which is still
			// blocked: the inflight window only grew, so the captured
			// edges must match the no-completions reference exactly.
			close(release)
			h.rt.ThreadSynchronize()
			if err := h.rt.Err(); err != nil {
				t.Fatal(err)
			}
			compareExact(t, p, refEdges(p), h.capturedEdges(t))
			checkFIFOSemantic(t, p, h.actions)
		})
	}
}

func TestDepIndexDifferentialRealFree(t *testing.T) {
	for seed := int64(20); seed < 23; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			p := genDiffProg(rand.New(rand.NewSource(seed)), 4, 40, true)
			h := newDiffHarness(t, p, ModeReal, func(*KernelCtx) {})
			// One concurrent source per stream; completions race
			// enqueues, so edges to already-completed predecessors are
			// legitimately pruned and only containment is asserted.
			var wg sync.WaitGroup
			for s := 0; s < p.nStreams; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := range p.acts {
						if p.acts[i].stream == s {
							h.enqueueOne(t, p, i)
						}
					}
				}(s)
			}
			wg.Wait()
			h.rt.ThreadSynchronize()
			if err := h.rt.Err(); err != nil {
				t.Fatal(err)
			}
			// Per-stream enqueue positions, for the ordering check.
			pos := make([]int, len(p.acts))
			next := make([]int, p.nStreams)
			for i, a := range p.acts {
				pos[i] = next[a.stream]
				next[a.stream]++
			}
			got := h.capturedEdges(t)
			for i, edges := range got {
				for j, why := range edges {
					switch why {
					case trace.DepEvent:
						found := false
						for _, e := range p.acts[i].extra {
							found = found || e == j
						}
						if !found {
							t.Errorf("act %d: event dep on %d not among its explicit deps", i, j)
						}
					case trace.DepSync:
						if p.acts[i].stream != p.acts[j].stream {
							t.Errorf("act %d: sync dep on %d crosses streams", i, j)
						} else if pos[j] >= pos[i] {
							t.Errorf("act %d: sync dep on later action %d", i, j)
						} else if p.acts[i].kind != ActSync && p.acts[j].kind != ActSync {
							t.Errorf("act %d: sync dep on %d with no sync endpoint", i, j)
						}
					case trace.DepFIFO:
						if p.acts[i].stream != p.acts[j].stream {
							t.Errorf("act %d: FIFO dep on %d crosses streams", i, j)
						} else if pos[j] >= pos[i] {
							t.Errorf("act %d: FIFO dep on later action %d", i, j)
						} else if !hazardDiff(p.acts[i], p.acts[j]) {
							t.Errorf("act %d: FIFO dep on %d without operand hazard", i, j)
						}
					default:
						t.Errorf("act %d: unexpected dep kind %v on %d", i, j, why)
					}
				}
			}
			checkFIFOSemantic(t, p, h.actions)
		})
	}
}
