package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hstreams/internal/core"
	"hstreams/internal/metrics"
	"hstreams/internal/platform"
	"hstreams/internal/trace"
)

// The action shape of sched_sim and sched_real is the one
// sched_bench_test.go times (three tiled buffers per stream, C inout
// and A, B in, a marker every 512 actions), so that the numbers here
// can be reconciled with BENCH_sched_throughput.json. The only
// difference is that the tile an action touches follows a seeded
// permutation instead of i%64.
const (
	schedTiles       = 64
	schedTileBytes   = 256
	schedMarkerEvery = 512
	// enqueueSpanEvery is the sampling rate of enqueue spans in a
	// traced round: every call is timed into the mean, one in this
	// many also gets a span of its own.
	enqueueSpanEvery = 256
)

// schedShape is what distinguishes the two scheduler workloads.
type schedShape struct {
	name      string
	mode      core.Mode
	streams   int
	perStream int
	// sources is the number of goroutines enqueueing; each drives
	// streams/sources streams. Sim mode requires 1.
	sources int
}

var (
	schedSimShape  = schedShape{name: "sched_sim", mode: core.ModeSim, streams: 8, perStream: 8192, sources: 1}
	schedRealShape = schedShape{name: "sched_real", mode: core.ModeReal, streams: 8, perStream: 4096, sources: 2}
)

// actionsPerRound is the number of actions (computes and markers) one
// round enqueues.
func (sh schedShape) actionsPerRound() int {
	return sh.streams * (sh.perStream + sh.perStream/schedMarkerEvery)
}

// tilePerms returns one seeded tile permutation per stream: action i
// of a stream touches tile perm[i%schedTiles].
func tilePerms(seed int64, streams int) [][]int {
	perms := make([][]int, streams)
	for s := range perms {
		perms[s] = rand.New(rand.NewSource(seed*1000003 + int64(s))).Perm(schedTiles)
	}
	return perms
}

type schedStream struct {
	s       *core.Stream
	a, b, c *core.Buf
}

// schedRoundOpts selects what one round records beyond its wall time.
type schedRoundOpts struct {
	tr            *tracer // spans and per-call enqueue timing when non-nil
	unit          int64   // the round's id in the span file
	flightCap     int     // capacity of the round's private flight recorder (0: default)
	disableCausal bool    // core.Config.DisableCausalTrace
	keepSpans     bool    // return the flight recorder's snapshot
}

// schedRoundResult is what one round measured.
type schedRoundResult struct {
	actions   int
	bad       int           // actions whose effect is missing or duplicated
	wall      time.Duration // first enqueue to ThreadSynchronize return
	total     time.Duration // the whole round: init, streams, buffers, the above, verify, fini
	cpu       time.Duration // process CPU over the same window
	syncWait  time.Duration // part of wall inside ThreadSynchronize
	enqueueNS int64         // summed EnqueueCompute call time (traced rounds)
	enqueues  int           // EnqueueCompute calls
	makespan  time.Duration // runtime clock at the end (virtual in Sim)
	mem       memDelta
	spans     []trace.Span
}

// bumpKernel increments the counter in the first 8 bytes of operand
// 0. Every action on a tile overlaps every other on its inout C
// operand, so the runtime must run them one at a time and in order;
// a lost or concurrent update leaves the counter short.
func bumpKernel(ctx *core.KernelCtx) {
	p := ctx.Ops[0][:8]
	binary.LittleEndian.PutUint64(p, binary.LittleEndian.Uint64(p)+1)
}

// schedRound runs one round on a fresh runtime with a private
// registry and flight recorder.
func schedRound(sh schedShape, perms [][]int, opt schedRoundOpts) (res schedRoundResult, err error) {
	tr, unit := opt.tr, opt.unit
	roundID := tr.id()
	roundStart := time.Now()
	defer func() { // runs last, after the runtime has been finalized
		res.total = time.Since(roundStart)
		tr.put(roundID, 0, unit, "round", roundStart, time.Now())
	}()

	cards := 0
	if sh.mode == core.ModeSim {
		cards = 2
	}
	reg := metrics.New()
	flight := trace.NewFlight(opt.flightCap)
	t0 := time.Now()
	rt, err := core.Init(core.Config{
		Machine:            platform.HSWPlusKNC(cards),
		Mode:               sh.mode,
		Metrics:            reg,
		Flight:             flight,
		DisableCausalTrace: opt.disableCausal,
	})
	if err != nil {
		return res, err
	}
	tr.leaf(roundID, unit, "core.Init", t0, time.Now())
	defer func() {
		t := time.Now()
		rt.Fini()
		tr.leaf(roundID, unit, "core.Fini", t, time.Now())
	}()
	rt.RegisterKernel("nop", func(*core.KernelCtx) {})
	rt.RegisterKernel("bump", bumpKernel)
	kernel := "nop"
	if sh.mode == core.ModeReal {
		kernel = "bump"
	}

	host := rt.Host()
	streams := make([]schedStream, sh.streams)
	for i := range streams {
		d, first := host, (2*i)%(host.Spec().Cores()-2)
		if sh.mode == core.ModeSim {
			d = rt.Card(i % rt.NumCards())
			first = (2 * i) % (d.Spec().Cores() - 2)
		}
		s, err := rt.StreamCreate(d, first, 2)
		if err != nil {
			return res, err
		}
		st := schedStream{s: s}
		for _, b := range []struct {
			name string
			dst  **core.Buf
		}{{"a", &st.a}, {"b", &st.b}, {"c", &st.c}} {
			if *b.dst, err = rt.Alloc1D(fmt.Sprintf("%s%d", b.name, i), schedTiles*schedTileBytes); err != nil {
				return res, err
			}
		}
		streams[i] = st
	}

	// enqueueOne enqueues action i of a stream, and the marker that
	// follows it when one is due.
	enqueueOne := func(st schedStream, perm []int, i int) (int, error) {
		t := int64(perm[i%schedTiles]) * schedTileBytes
		ops := []core.Operand{
			st.c.Range(t, schedTileBytes, core.InOut),
			st.a.Range(t, schedTileBytes, core.In),
			st.b.Range(t, schedTileBytes, core.In),
		}
		if _, err := st.s.EnqueueCompute(kernel, nil, ops, platform.Cost{}); err != nil {
			return 0, err
		}
		if (i+1)%schedMarkerEvery != 0 {
			return 1, nil
		}
		if _, err := st.s.EnqueueMarker(); err != nil {
			return 1, err
		}
		return 2, nil
	}

	// drive is one source goroutine: it owns streams [lo, hi). A
	// single source drives its streams one after the other, as the
	// Sim arm of sched_bench_test.go does; several sources go
	// round-robin over their streams.
	type sourceResult struct {
		actions, enqueues int
		enqueueNS         int64
		err               error
	}
	drive := func(lo, hi int) (sr sourceResult) {
		srcID := tr.id()
		srcStart := time.Now()
		defer func() { tr.put(srcID, roundID, unit, "source.enqueue", srcStart, time.Now()) }()
		one := func(s, i int) bool {
			var t0 time.Time
			if tr != nil {
				t0 = time.Now()
			}
			n, err := enqueueOne(streams[s], perms[s], i)
			if tr != nil {
				t1 := time.Now()
				sr.enqueueNS += t1.Sub(t0).Nanoseconds()
				if sr.enqueues%enqueueSpanEvery == 0 {
					tr.leaf(srcID, unit, "core.EnqueueCompute", t0, t1)
				}
			}
			sr.enqueues++
			sr.actions += n
			sr.err = err
			return err == nil
		}
		if sh.sources == 1 {
			for s := lo; s < hi; s++ {
				for i := 0; i < sh.perStream; i++ {
					if !one(s, i) {
						return sr
					}
				}
			}
			return sr
		}
		for i := 0; i < sh.perStream; i++ {
			for s := lo; s < hi; s++ {
				if !one(s, i) {
					return sr
				}
			}
		}
		return sr
	}

	before := memMark()
	cpu0 := selfCPU()
	start := time.Now()
	per := sh.streams / sh.sources
	results := make([]sourceResult, sh.sources)
	if sh.sources == 1 {
		results[0] = drive(0, sh.streams)
	} else {
		var wg sync.WaitGroup
		for g := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[g] = drive(g*per, (g+1)*per)
			}()
		}
		wg.Wait()
	}
	syncStart := time.Now()
	rt.ThreadSynchronize()
	end := time.Now()
	res.wall = end.Sub(start)
	res.syncWait = end.Sub(syncStart)
	res.cpu = selfCPU() - cpu0
	res.mem = memSince(before)
	tr.leaf(roundID, unit, "core.ThreadSynchronize", syncStart, end)
	for _, sr := range results {
		if sr.err != nil {
			return res, sr.err
		}
		res.actions += sr.actions
		res.enqueues += sr.enqueues
		res.enqueueNS += sr.enqueueNS
	}
	res.makespan = rt.Now()

	// Verify outside the timed window.
	verifyStart := time.Now()
	if err := rt.Err(); err != nil {
		return res, fmt.Errorf("%s: runtime error: %w", sh.name, err)
	}
	enq := int(reg.Total("hstreams_actions_enqueued_total"))
	retired := int(reg.Total("hstreams_stream_retired_total"))
	if enq != res.actions || retired != res.actions {
		res.bad += abs(res.actions-enq) + abs(res.actions-retired)
	}
	if sh.mode == core.ModeReal {
		for s, st := range streams {
			want := make([]uint64, schedTiles)
			for i := 0; i < sh.perStream; i++ {
				want[perms[s][i%schedTiles]]++
			}
			c := st.c.HostBytes()
			for t, w := range want {
				got := binary.LittleEndian.Uint64(c[t*schedTileBytes:])
				if got != w {
					res.bad += abs(int(got) - int(w))
				}
			}
		}
	}
	tr.leaf(roundID, unit, "verify", verifyStart, time.Now())
	if opt.keepSpans {
		res.spans = flight.Snapshot()
	}
	return res, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// runSched measures one of the two scheduler workloads.
func runSched(sh schedShape, e *env) (*outcome, error) {
	sh.perStream /= min(e.scale, 8) // keeps a whole number of marker periods
	perms := tilePerms(e.seed, sh.streams)
	out := newOutcome()

	// Set-up: a fresh runtime serves every round, so what precedes
	// the first timed operation is one complete warm-up round, and
	// every later round is a sample of the same thing. setup_s is
	// the median over all of them, which e.reps set-ups at the start
	// of the run would only approximate.
	warm, err := schedRound(sh, perms, schedRoundOpts{})
	if err != nil {
		return nil, err
	}
	setups := []float64{warm.total.Seconds()}

	traced := e.tr != nil
	var (
		tally               = newRoundTally(e.tr)
		enqueueNS, enqueues int64
		syncShare           []float64
		makespans           = map[time.Duration]int{}
		lastSpans           []trace.Span
	)
	for round := int64(1); tally.more(e.dur); round++ {
		began := time.Since(tally.start)
		opt := schedRoundOpts{unit: round, tr: tally.tracerFor(round)}
		if opt.tr != nil {
			// Sized to hold the whole round.
			opt.flightCap, opt.keepSpans = 2*sh.actionsPerRound(), true
		}
		r, err := schedRound(sh, perms, opt)
		if err != nil {
			return nil, err
		}
		out.attempted += int64(r.actions)
		out.failed += int64(r.bad)
		makespans[r.makespan]++
		if !tally.add(began, opt.tr, r.actions, r.wall, r.cpu, r.mem) {
			continue
		}
		setups = append(setups, r.total.Seconds())
		enqueueNS += r.enqueueNS
		enqueues += int64(r.enqueues)
		syncShare = append(syncShare, r.syncWait.Seconds()/r.wall.Seconds())
		if r.spans != nil {
			lastSpans = r.spans
		}
	}
	if sh.mode == core.ModeSim && len(makespans) != 1 {
		out.problems = append(out.problems, fmt.Sprintf("simulated makespan differs between rounds: %v", makespans))
	}
	tally.report(e, out, sh.name, "actions", setups)
	if !traced {
		return out, nil
	}

	// Per-layer numbers of the traced rounds.
	suffix := "real"
	if sh.mode == core.ModeSim {
		suffix = "sim"
	}
	out.layer["core.enqueue_"+suffix+"_ns"] = float64(enqueueNS) / float64(enqueues)
	if sh.mode == core.ModeSim {
		for m := range makespans {
			out.layer["core.sim_makespan_us"] = float64(m) / 1e3
		}
		depEdges := 0
		for _, s := range lastSpans {
			depEdges += len(s.Deps)
		}
		out.layer["core.dep_edges_per_action"] = float64(depEdges) / float64(len(lastSpans))
		t0 := time.Now()
		rep := trace.Analyze(lastSpans)
		out.layer["trace.analyze_ms_per_100k_spans"] = float64(time.Since(t0)) / 1e6 * 1e5 / float64(rep.Spans)
		return out, nil
	}
	out.layer["core.sync_wait_share"] = newDist(syncShare).q(0.5)
	schedLat := make([]float64, len(lastSpans))
	for i, s := range lastSpans {
		schedLat[i] = float64(s.Launch-s.Ready) / 1e3
	}
	ld := newDist(schedLat)
	out.layer["core.sched_latency_p50_us"] = ld.q(0.5)
	out.layer["core.sched_latency_p99_us"] = ld.q(0.99)

	// What the runtime's own causal tracing costs on this shape:
	// interleaved pairs, median of the per-pair ratios, because a
	// change in machine speed hits both halves of a pair alike.
	var overhead []float64
	for pair := 0; pair < max(obsPairs/e.scale, 1); pair++ {
		var wall [2]float64
		for arm, off := range []bool{false, true} {
			r, err := schedRound(sh, perms, schedRoundOpts{disableCausal: off})
			if err != nil {
				return nil, err
			}
			wall[arm] = r.wall.Seconds()
		}
		overhead = append(overhead, (wall[0]/wall[1]-1)*100)
	}
	out.layer["obs.trace_overhead_pct"] = newDist(overhead).q(0.5)
	return out, nil
}

// obsPairs is the number of traced/untraced round pairs behind
// obs.trace_overhead_pct.
const obsPairs = 5
