package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hstreams/internal/metrics"
	"hstreams/internal/platform"
	"hstreams/internal/trace"
)

// Differential property test for the operand-interval dependence
// index: randomized multi-stream programs with overlapping, adjacent
// and disjoint operand ranges, and region-state programs (long-lived
// whole-range reads over shuffled partial writes), run through the
// real scheduler, and the
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
//   - order-exact in Sim and gate-blocked Real mode: per stream, the
//     transitive closure of the captured edges equals that of the
//     naive all-pairs hazard set, whichever edges are materialized;
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

// diffShape is what genDiffProg draws a program from.
type diffShape struct {
	streams, perStream int
	bufSize, quantum   int64 // operand offsets and lengths are multiples of quantum
	syncPct            int   // weight of markers and event-waits against 85 for computes and transfers
	// region draws each stream's steps as whole-range reads (a few
	// partial) alternating with quantized partial writes at shuffled
	// offsets: long-lived region operands that many short writes
	// overlap. It has no markers and no explicit deps.
	region bool
	// sameStreamExtras restricts explicit deps to the enqueuing stream
	// (required when streams are driven by concurrent sources — a
	// cross-stream handle may not exist yet).
	sameStreamExtras bool
}

// mixedShape is the default program: small buffers, every step kind.
func mixedShape(streams, perStream int) diffShape {
	return diffShape{streams: streams, perStream: perStream, bufSize: 64, quantum: 8, syncPct: 15}
}

// regionShape is the region-state program: 64 quanta per buffer, so
// whole-range readers meet many distinct writer boundaries.
func regionShape(streams, perStream int) diffShape {
	return diffShape{streams: streams, perStream: perStream, bufSize: 512, quantum: 8, region: true}
}

// genDiffProg builds a random program: per stream a leading gate
// action, then the steps sh describes. In the mixed shape they are a
// mix of computes (1–3 operands, random access modes), transfers,
// markers, event-waits and computes with explicit deps. Operand ranges
// are quantized so overlapping, exactly-adjacent and disjoint pairs
// all occur often.
func genDiffProg(r *rand.Rand, sh diffShape) *diffProg {
	p := &diffProg{nStreams: sh.streams, nBufs: 2 * sh.streams, bufSize: sh.bufSize}
	nQ := int(p.bufSize / sh.quantum)
	for s := 0; s < sh.streams; s++ {
		gate := diffAct{stream: s, kind: ActCompute, gate: true}
		for b := 0; b < p.nBufs; b++ {
			gate.ops = append(gate.ops, diffOp{buf: b, off: 0, ln: p.bufSize, acc: InOut})
		}
		p.acts = append(p.acts, gate)
	}
	randOp := func() diffOp {
		off := int64(r.Intn(nQ)) * sh.quantum
		ln := int64(1+r.Intn(int((p.bufSize-off)/sh.quantum))) * sh.quantum
		return diffOp{
			buf: r.Intn(p.nBufs),
			off: off,
			ln:  ln,
			acc: []Access{In, Out, InOut}[r.Intn(3)],
		}
	}
	if sh.region {
		// Each stream's steps touch the first two buffers; the
		// streams are then interleaved at random, keeping each one's
		// order.
		steps := make([][]diffAct, sh.streams)
		for s := range steps {
			perm := r.Perm(nQ)
			for n := 0; n < sh.perStream; n++ {
				op := diffOp{buf: r.Intn(2), ln: p.bufSize, acc: In}
				if n%2 == 1 {
					op.off = int64(perm[n/2%nQ]) * sh.quantum
					op.ln = min(int64(1+r.Intn(3))*sh.quantum, p.bufSize-op.off)
					op.acc = []Access{Out, InOut}[r.Intn(2)]
				} else if r.Intn(4) == 0 {
					op = randOp()
					op.buf, op.acc = r.Intn(2), In
				}
				steps[s] = append(steps[s], diffAct{stream: s, kind: ActCompute, ops: []diffOp{op}})
			}
		}
		for left := sh.streams * sh.perStream; left > 0; left-- {
			s := r.Intn(sh.streams)
			for len(steps[s]) == 0 {
				s = (s + 1) % sh.streams
			}
			p.acts = append(p.acts, steps[s][0])
			steps[s] = steps[s][1:]
		}
		return p
	}
	pickExtras := func(i, s int) []int {
		var pool []int
		for j := 0; j < i; j++ {
			if !sh.sameStreamExtras || p.acts[j].stream == s {
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
	for n := 0; n < sh.streams*sh.perStream; n++ {
		s := r.Intn(sh.streams)
		i := len(p.acts)
		switch roll := r.Intn(85 + sh.syncPct); {
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
		case roll < 85+sh.syncPct*8/15: // marker
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

// diffSim runs p in Sim mode and asserts the captured edges equal
// refEdges exactly, induce the naive hazard order, and executed in
// that order.
func diffSim(t *testing.T, p *diffProg) {
	t.Helper()
	h := newDiffHarness(t, p, ModeSim, func(*KernelCtx) {})
	for i := range p.acts {
		h.enqueueOne(t, p, i)
	}
	// Nothing completed while enqueueing: the engine is pumped only on
	// waits and above-threshold drains.
	h.rt.ThreadSynchronize()
	if err := h.rt.Err(); err != nil {
		t.Fatal(err)
	}
	got := h.capturedEdges(t)
	compareExact(t, p, refEdges(p), got)
	checkClosure(t, p, got)
	checkFIFOSemantic(t, p, h.actions)
	checkClearedSlots(t, h)
}

// checkClearedSlots asserts that every slot past the end of an
// interval set's lists is zero: whatever a reset, a drop or a
// replacement removed no longer pins its action.
func checkClearedSlots(t *testing.T, h *diffHarness) {
	t.Helper()
	for si, s := range h.streams {
		s.mu.Lock()
		for b, iv := range s.index {
			for name, list := range map[string][]opIval{"w": iv.w, "r": iv.r} {
				for k, n := range list[len(list):cap(list)] {
					if n != (opIval{}) {
						t.Errorf("stream %d buf %s: %s[%d] past len %d holds a record of action %d",
							si, b.name, name, len(list)+k, len(list), n.act.ID())
					}
				}
			}
		}
		s.mu.Unlock()
	}
}

func TestDepIndexDifferentialSim(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			diffSim(t, genDiffProg(rand.New(rand.NewSource(seed)), mixedShape(4, 60)))
		})
		t.Run(fmt.Sprintf("region%d", seed), func(t *testing.T) {
			diffSim(t, genDiffProg(rand.New(rand.NewSource(seed)), regionShape(2, 150)))
		})
	}
}

func TestDepIndexDifferentialRealGated(t *testing.T) {
	run := func(t *testing.T, p *diffProg) {
		release := make(chan struct{})
		h := newDiffHarness(t, p, ModeReal, func(*KernelCtx) { <-release })
		for i := range p.acts {
			h.enqueueOne(t, p, i)
		}
		// Every stream's actions root at its gate, which is still
		// blocked: the inflight window only grew, so the captured edges
		// must match the no-completions reference exactly.
		close(release)
		h.rt.ThreadSynchronize()
		if err := h.rt.Err(); err != nil {
			t.Fatal(err)
		}
		got := h.capturedEdges(t)
		compareExact(t, p, refEdges(p), got)
		checkClosure(t, p, got)
		checkFIFOSemantic(t, p, h.actions)
	}
	for seed := int64(10); seed < 13; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			run(t, genDiffProg(rand.New(rand.NewSource(seed)), mixedShape(4, 40)))
		})
		t.Run(fmt.Sprintf("region%d", seed), func(t *testing.T) {
			run(t, genDiffProg(rand.New(rand.NewSource(seed)), regionShape(2, 100)))
		})
	}
}

// FuzzDepIndex draws the generator's seed and shape from the input and
// holds the Sim edge set to refEdges exactly.
func FuzzDepIndex(f *testing.F) {
	f.Add(int64(0), uint8(4), uint8(8), uint8(8), uint8(15), false)
	f.Add(int64(1), uint8(2), uint8(64), uint8(8), uint8(0), true)
	f.Add(int64(2), uint8(1), uint8(200), uint8(3), uint8(4), false)
	f.Fuzz(func(t *testing.T, seed int64, streams, quanta, quantum, syncPct uint8, region bool) {
		sh := diffShape{
			streams:   1 + int(streams%4),
			perStream: 40,
			quantum:   1 + int64(quantum%16),
			syncPct:   int(syncPct % 31),
			region:    region,
		}
		sh.bufSize = sh.quantum * (1 + int64(quanta%128))
		if region {
			sh.perStream = 80
		}
		diffSim(t, genDiffProg(rand.New(rand.NewSource(seed)), sh))
	})
}

func TestDepIndexDifferentialRealFree(t *testing.T) {
	for seed := int64(20); seed < 23; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sh := mixedShape(4, 40)
			sh.sameStreamExtras = true
			p := genDiffProg(rand.New(rand.NewSource(seed)), sh)
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

// tileShape enqueues depth actions on one Sim card stream over one
// buffer of 64-B tiles, touching the tiles in a seeded permutation,
// and returns the time spent in EnqueueCompute and the dependence
// edges the actions got (their pending count: nothing completes below
// the Sim drain threshold). region alternates a
// whole-buffer read with a write of the next tile (depth/2 tiles);
// otherwise every action writes its own tile (depth tiles, disjoint).
// each, if non-nil, runs after every enqueue.
func tileShape(tb testing.TB, depth int, region bool, each func(*Stream, Operand)) (enq time.Duration, edges int64) {
	tb.Helper()
	const tile = 64
	rt, err := Init(Config{
		Machine:            platform.HSWPlusKNC(1),
		Mode:               ModeSim,
		Metrics:            metrics.New(),
		DisableCausalTrace: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	defer rt.Fini()
	s, err := rt.StreamCreate(rt.Card(0), 0, 2)
	if err != nil {
		tb.Fatal(err)
	}
	tiles := depth
	if region {
		tiles = depth / 2
	}
	b, err := rt.Alloc1D("region", int64(tiles)*tile)
	if err != nil {
		tb.Fatal(err)
	}
	perm := rand.New(rand.NewSource(7)).Perm(tiles)
	for i, k := 0, 0; i < depth; i++ {
		op := b.Range(0, b.Size(), In)
		if !region || i%2 == 1 {
			op = b.Range(int64(perm[k])*tile, tile, Out)
			k++
		}
		t0 := time.Now()
		a, err := s.EnqueueCompute("nop", nil, []Operand{op}, platform.Cost{})
		enq += time.Since(t0)
		if err != nil {
			tb.Fatal(err)
		}
		edges += int64(a.npend.Load())
		if each != nil {
			each(s, op)
		}
	}
	rt.ThreadSynchronize()
	return enq, edges
}

// TestDepIndexRegionBounded is the output-sensitivity proxy: on the
// region-state shape (whole-region reads alternating with single-tile
// writes in shuffled order, 3,000 tiles) the index never holds more
// than indexSlack × (live actions + distinct operand boundaries)
// records. A reader set that splits every live reader around each
// written tile holds ~n²/8 records instead.
func TestDepIndexRegionBounded(t *testing.T) {
	const n, indexSlack = 3000, 2
	bounds := map[int64]bool{}
	worst := 0.0
	tileShape(t, 2*n, true, func(s *Stream, op Operand) {
		bounds[op.Off], bounds[op.Off+op.Len] = true, true
		s.mu.Lock()
		iv := s.index[op.Buf]
		records, live := len(iv.w)+len(iv.r), len(s.inflight)
		s.mu.Unlock()
		if limit := indexSlack * (live + len(bounds)); records > limit {
			t.Fatalf("index holds %d records, over %d × (%d live + %d boundaries)",
				records, indexSlack, live, len(bounds))
		}
		worst = max(worst, float64(records)/float64(live+len(bounds)))
	})
	t.Logf("worst records / (live + boundaries) = %.2f", worst)
}

// BenchmarkEnqueueAtDepth reports the mean enqueue cost of a Sim stream
// whose window grows to each depth (nothing completes below the Sim
// drain threshold), for the region-state shape and for disjoint tile
// writes. It reports edges/enqueue beside ns/enqueue: in the region
// shape every action links behind the live half of the window, so its
// edges, and the work they carry, grow with depth whatever the index
// costs.
func BenchmarkEnqueueAtDepth(b *testing.B) {
	for _, shape := range []string{"region", "disjoint"} {
		for _, depth := range []int{256, 1024, 4000} {
			b.Run(fmt.Sprintf("%s/depth=%d", shape, depth), func(b *testing.B) {
				var enq time.Duration
				var edges int64
				for i := 0; i < b.N; i++ {
					t, e := tileShape(b, depth, shape == "region", nil)
					enq, edges = enq+t, edges+e
				}
				b.ReportMetric(float64(enq.Nanoseconds())/float64(b.N*depth), "ns/enqueue")
				b.ReportMetric(float64(edges)/float64(b.N*depth), "edges/enqueue")
			})
		}
	}
}
