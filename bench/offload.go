package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"time"

	"hstreams/internal/app"
	"hstreams/internal/core"
	"hstreams/internal/health"
	"hstreams/internal/metrics"
	"hstreams/internal/platform"
	"hstreams/internal/telemetry"
	"hstreams/internal/trace"
)

// offload_real is the paper's pipelined offload at the small-tile end
// of its sweep: a tile goes to a card, is computed on, and comes back,
// 512 tiles of 16 KiB per round over 4 card streams. The kernel is
// trivial on purpose, so that run-function messaging, DMA and
// dependence ordering carry the cost.
const (
	offTiles     = 512
	offTileBytes = 16 << 10
	offCards     = 2
	offPerCard   = 2
	// offFlightCap is a flight-recorder capacity that holds a whole
	// round (3 actions per tile) with room to spare.
	offFlightCap = 4 * 3 * offTiles
)

// axpbKernel computes Y = 2·X + args[0] over 64-bit words. args[0] is
// the tile's running index over the whole run, so the values a tile
// must come back with differ from round to round and a stale sink
// instance cannot pass for a result.
func axpbKernel(ctx *core.KernelCtx) {
	x, y := ctx.Ops[0], ctx.Ops[1]
	k := uint64(ctx.Args[0])
	for i := 0; i+8 <= len(y); i += 8 {
		binary.LittleEndian.PutUint64(y[i:], 2*binary.LittleEndian.Uint64(x[i:])+k)
	}
}

// offloadRig is one initialised runtime with its card streams.
type offloadRig struct {
	app      *app.App
	reg      *metrics.Registry
	flight   *trace.FlightRecorder
	streams  []*core.Stream
	template []byte // what X is filled with
	tileSeq  int64  // running tile index
}

func newOffloadRig(seed int64, flightCap int) (*offloadRig, error) {
	r := &offloadRig{reg: metrics.New(), flight: trace.NewFlight(flightCap)}
	a, err := app.Init(app.Options{
		Machine:        platform.HSWPlusKNC(offCards),
		Mode:           core.ModeReal,
		StreamsPerCard: offPerCard,
		Metrics:        r.reg,
		Flight:         r.flight,
	})
	if err != nil {
		return nil, err
	}
	r.app = a
	a.RT.RegisterKernel("axpb", axpbKernel)
	for c := 0; c < offCards; c++ {
		r.streams = append(r.streams, a.CardStreams(c)...)
	}
	r.template = make([]byte, offTiles*offTileBytes)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i+8 <= len(r.template); i += 8 {
		binary.LittleEndian.PutUint64(r.template[i:], rng.Uint64())
	}
	return r, nil
}

// offRoundResult is what one round measured.
type offRoundResult struct {
	bad         int           // tiles that came back wrong
	wall        time.Duration // alloc + fill + enqueue + synchronise + free
	cpu         time.Duration
	mem         memDelta
	alloc, free time.Duration // per call
}

// round runs one round: allocate X and Y, fill X, send every tile
// through a card and back, synchronise, verify (untimed), free.
func (r *offloadRig) round(tr *tracer, unit int64) (res offRoundResult, err error) {
	rt := r.app.RT
	roundID := tr.id()
	roundStart := time.Now()
	defer func() { tr.put(roundID, 0, unit, "round", roundStart, time.Now()) }()
	live := r.reg.Total("hstreams_buffers_live")

	before := memMark()
	cpu0 := selfCPU()
	start := time.Now()
	x, err := rt.Alloc1D("x", int64(len(r.template)))
	if err != nil {
		return res, err
	}
	y, err := rt.Alloc1D("y", int64(len(r.template)))
	if err != nil {
		return res, err
	}
	allocEnd := time.Now()
	res.alloc = allocEnd.Sub(start) / 2
	tr.leaf(roundID, unit, "core.Alloc1D x2", start, allocEnd)
	copy(x.HostBytes(), r.template)
	fillEnd := time.Now()
	tr.leaf(roundID, unit, "fill", allocEnd, fillEnd)

	base := r.tileSeq
	r.tileSeq += offTiles
	enqID := tr.id()
	for t := 0; t < offTiles; t++ {
		s := r.streams[t%len(r.streams)]
		off := int64(t) * offTileBytes
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		if _, err := s.EnqueueXfer(x, off, offTileBytes, core.ToSink); err != nil {
			return res, err
		}
		ops := []core.Operand{x.Range(off, offTileBytes, core.In), y.Range(off, offTileBytes, core.Out)}
		if _, err := s.EnqueueCompute("axpb", []int64{base + int64(t)}, ops, platform.Cost{}); err != nil {
			return res, err
		}
		if _, err := s.EnqueueXfer(y, off, offTileBytes, core.ToSource); err != nil {
			return res, err
		}
		if tr != nil && t%16 == 0 {
			tr.leaf(enqID, unit, "core.Enqueue tile (xfer, compute, xfer)", t0, time.Now())
		}
	}
	syncStart := time.Now()
	tr.put(enqID, roundID, unit, "source.enqueue", fillEnd, syncStart)
	rt.ThreadSynchronize()
	syncEnd := time.Now()
	tr.leaf(roundID, unit, "core.ThreadSynchronize", syncStart, syncEnd)
	res.wall = syncEnd.Sub(start)
	res.cpu = selfCPU() - cpu0

	// Verify every word of Y, outside the timed window.
	if err := rt.Err(); err != nil {
		return res, fmt.Errorf("offload_real: runtime error: %w", err)
	}
	yb := y.HostBytes()
	for t := 0; t < offTiles; t++ {
		k := uint64(base + int64(t))
		lo := t * offTileBytes
		for i := lo; i < lo+offTileBytes; i += 8 {
			if binary.LittleEndian.Uint64(yb[i:]) != 2*binary.LittleEndian.Uint64(r.template[i:])+k {
				res.bad++
				break
			}
		}
	}
	verifyEnd := time.Now()
	tr.leaf(roundID, unit, "verify", syncEnd, verifyEnd)

	cpu1 := selfCPU()
	if err := x.Free(); err != nil {
		return res, err
	}
	if err := y.Free(); err != nil {
		return res, err
	}
	freeEnd := time.Now()
	res.free = freeEnd.Sub(verifyEnd) / 2
	res.wall += freeEnd.Sub(verifyEnd)
	res.cpu += selfCPU() - cpu1
	res.mem = memSince(before)
	tr.leaf(roundID, unit, "core.Buf.Free x2", verifyEnd, freeEnd)
	if now := r.reg.Total("hstreams_buffers_live"); now != live {
		return res, fmt.Errorf("offload_real: hstreams_buffers_live is %v after the round, was %v before it", now, live)
	}
	return res, nil
}

// tileRTT measures one tile sent, computed, returned and waited for,
// alone on an idle runtime: the paper's small-transfer overhead.
func (r *offloadRig) tileRTT(n int) ([]float64, error) {
	rt := r.app.RT
	x, err := rt.Alloc1D("rtt-x", offTileBytes)
	if err != nil {
		return nil, err
	}
	y, err := rt.Alloc1D("rtt-y", offTileBytes)
	if err != nil {
		return nil, err
	}
	copy(x.HostBytes(), r.template)
	s := r.streams[0]
	var us []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := s.EnqueueXfer(x, 0, offTileBytes, core.ToSink); err != nil {
			return nil, err
		}
		ops := []core.Operand{x.All(core.In), y.All(core.Out)}
		if _, err := s.EnqueueCompute("axpb", []int64{int64(i)}, ops, platform.Cost{}); err != nil {
			return nil, err
		}
		back, err := s.EnqueueXfer(y, 0, offTileBytes, core.ToSource)
		if err != nil {
			return nil, err
		}
		if err := back.Wait(); err != nil {
			return nil, err
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	if err := x.Free(); err != nil {
		return nil, err
	}
	return us, y.Free()
}

// runOffload measures offload_real.
func runOffload(e *env) (*outcome, error) {
	out := newOutcome()
	traced := e.tr != nil
	flightCap := 0
	if traced {
		flightCap = offFlightCap
	}

	// Set-up: runtime and streams, the X template, one warm-up round.
	var setups []float64
	var rig *offloadRig
	for i := 0; i < e.reps; i++ {
		if rig != nil {
			rig.app.Fini()
		}
		t0 := time.Now()
		var err error
		if rig, err = newOffloadRig(e.seed, flightCap); err != nil {
			return nil, err
		}
		if _, err := rig.round(nil, 0); err != nil {
			rig.app.Fini()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { rig.app.Fini() }()

	if traced {
		rtt, err := rig.tileRTT(200)
		if err != nil {
			return nil, err
		}
		out.layer["core.offload_rtt_p50_us"] = newDist(rtt).q(0.5)
	}

	tally := newRoundTally(e.tr)
	var allocs, frees []float64
	for round := int64(1); tally.more(e.dur); round++ {
		began := time.Since(tally.start)
		tr := tally.tracerFor(round)
		r, err := rig.round(tr, round)
		if err != nil {
			return nil, err
		}
		out.attempted += offTiles
		out.failed += int64(r.bad)
		if tally.add(began, tr, offTiles, r.wall, r.cpu, r.mem) {
			allocs = append(allocs, float64(r.alloc)/1e3)
			frees = append(frees, float64(r.free)/1e3)
		}
	}
	tally.report(e, out, "offload_real", "tiles", setups)
	if !traced {
		return out, nil
	}

	out.layer["core.alloc1d_us"] = mean(allocs)
	out.layer["core.buf_free_us"] = mean(frees)
	hits, misses := rig.reg.Total("hstreams_coi_pool_hits_total"), rig.reg.Total("hstreams_coi_pool_misses_total")
	out.layer["coi.pool_hit_ratio"] = hits / (hits + misses)
	if err := layerRound(e.seed, out); err != nil {
		return nil, err
	}
	return out, rig.observability(out)
}

// layerRound reads what the layers below count over one round: link
// traffic and the critical-path attribution of the round's spans. The
// round is the second of a fresh runtime, so that the counts do not
// depend on how many rounds the timed window held (control messages
// carry buffer ids and tile indices, whose encoded length grows with
// them).
func layerRound(seed int64, out *outcome) error {
	r, err := newOffloadRig(seed, offFlightCap)
	if err != nil {
		return err
	}
	defer r.app.Fini()
	if _, err := r.round(nil, 0); err != nil {
		return err
	}
	rt := r.app.RT
	linkBefore := rt.LinkStats()
	r.flight.Reset()
	if _, err := r.round(nil, 0); err != nil {
		return err
	}
	var bytes, transfers int64
	for i, ls := range rt.LinkStats() {
		bytes += ls.Bytes - linkBefore[i].Bytes
		transfers += ls.Transfers - linkBefore[i].Transfers
	}
	// Per tile two DMAs of a tile each, and over the same links the
	// compute's run-function descriptor and its completion.
	if bytes < 2*offTiles*offTileBytes || transfers != 4*offTiles {
		out.problems = append(out.problems, fmt.Sprintf("one round moved %d bytes in %d transfers, want at least %d in exactly %d",
			bytes, transfers, 2*offTiles*offTileBytes, 4*offTiles))
	}
	out.layer["fabric.link_bytes"] = float64(bytes)
	out.layer["fabric.link_transfers"] = float64(transfers)

	rep := trace.Analyze(trace.LatestRun(r.flight.Snapshot()))
	if rep.CategorySum() != rep.Makespan {
		out.problems = append(out.problems, fmt.Sprintf("critical-path categories sum to %v, makespan is %v", rep.CategorySum(), rep.Makespan))
	}
	for metric, category := range map[string]string{
		"core.crit_compute_share":        trace.CatCompute,
		"core.crit_transfer_share":       trace.CatTransfer,
		"core.crit_dep_stall_share":      trace.CatStall,
		"core.crit_sched_latency_share":  trace.CatSched,
		"core.crit_source_enqueue_share": trace.CatSource,
	} {
		out.layer[metric] = float64(rep.Categories[category]) / float64(rep.Makespan)
	}
	return nil
}

// observability times what watching the runtime costs, over the
// registry this run has filled: one exposition, one sampler tick, one
// health tick.
func (r *offloadRig) observability(out *outcome) error {
	const reps = 20
	out.layer["metrics.series"] = float64(len(r.reg.Snapshot()))
	var promErr error
	out.layer["metrics.expose_ms"] = perCall(reps, func(int) {
		if err := r.reg.WriteProm(io.Discard); err != nil {
			promErr = err
		}
	}) / 1e6

	store := telemetry.NewStore(0, 0)
	sampler := telemetry.NewSampler(telemetry.SamplerOptions{Registry: r.reg, Store: store})
	now := time.Now()
	tick := func(i int) time.Time { return now.Add(time.Duration(i+1) * 100 * time.Millisecond) }
	sampler.SampleOnce(now) // the first tick builds the series handles
	out.layer["telemetry.sample_tick_us"] = perCall(reps, func(i int) { sampler.SampleOnce(tick(i)) }) / 1e3

	hreg := metrics.New()
	engine := health.New(health.Options{
		Store:    store,
		Registry: hreg,
		Journal:  health.NewJournal(0, hreg),
		Runtimes: func() []*core.Runtime { return []*core.Runtime{r.app.RT} },
	})
	out.layer["health.tick_us"] = perCall(reps, func(i int) { engine.Tick(tick(i)) }) / 1e3
	return promErr
}
