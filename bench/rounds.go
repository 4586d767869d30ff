package main

import (
	"fmt"
	"runtime"
	"time"
)

// memDelta is the allocation a window caused.
type memDelta struct {
	bytes, mallocs uint64
	gcPause        time.Duration
}

// memMark snapshots the allocator's cumulative counters.
func memMark() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := memMark()
	return memDelta{
		bytes:   after.TotalAlloc - before.TotalAlloc,
		mallocs: after.Mallocs - before.Mallocs,
		gcPause: time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

func (m *memDelta) add(o memDelta) {
	m.bytes += o.bytes
	m.mallocs += o.mallocs
	m.gcPause += o.gcPause
}

// roundWindows is the number of windows the measured window of a
// round-based workload is cut into for steadyQuantile.
const roundWindows = 5

// roundTally accumulates the rounds of a round-based workload
// (sched_sim, sched_real, offload_real) and turns them into the
// end-to-end metrics. In a traced run every second round is left
// untraced, so that what the benchmark's own spans cost can be read
// off the same minutes of machine weather; only the traced rounds
// count towards the per-layer numbers then.
type roundTally struct {
	tr         *tracer // nil in an untraced run
	start      time.Time
	rates      []float64       // ops/s of the rounds that count
	walls      []float64       // their wall times in microseconds
	at         []time.Duration // when each of them began
	plainRates []float64       // ops/s of the untraced rounds of a traced run
	ops        int
	cpu        time.Duration
	mem        memDelta
}

func newRoundTally(tr *tracer) *roundTally { return &roundTally{tr: tr, start: time.Now()} }

// more reports whether another round is due: the window is still
// open, or a kind of round has not run yet.
func (t *roundTally) more(dur time.Duration) bool {
	return time.Since(t.start) < dur || len(t.rates) == 0 || (t.tr != nil && len(t.plainRates) == 0)
}

// tracerFor returns the tracer round number n records into: the run's
// for odd rounds, none for even ones.
func (t *roundTally) tracerFor(n int64) *tracer {
	if n%2 == 0 {
		return nil
	}
	return t.tr
}

// add records one round that began at the given offset from the
// tally's start and reports whether it counts.
func (t *roundTally) add(began time.Duration, tr *tracer, ops int, wall, cpu time.Duration, mem memDelta) bool {
	rate := float64(ops) / wall.Seconds()
	if t.tr != nil && tr == nil {
		t.plainRates = append(t.plainRates, rate)
		return false
	}
	t.rates = append(t.rates, rate)
	t.walls = append(t.walls, float64(wall)/1e3)
	t.at = append(t.at, began)
	t.ops += ops
	t.cpu += cpu
	t.mem.add(mem)
	return true
}

// report fills in the end-to-end metrics and, in a traced run, the
// per-layer ones every round-based workload shares.
func (t *roundTally) report(e *env, out *outcome, name, unit string, setups []float64) {
	rd, wd, sd := newDist(t.rates), newDist(t.walls), newDist(setups)
	out.e2e["setup_s"] = sd.q(0.5)
	out.e2e["ops_per_s"] = rd.q(0.5)
	out.e2e["latency_p50_us"] = steadyQuantile(t.at, t.walls, e.dur/roundWindows, 0.5)
	out.e2e["latency_p90_us"] = steadyQuantile(t.at, t.walls, e.dur/roundWindows, 0.9)
	out.e2e["cpu_us_per_op"] = float64(t.cpu) / 1e3 / float64(t.ops)
	out.e2e["alloc_bytes_per_op"] = float64(t.mem.bytes) / float64(t.ops)
	fmt.Fprintf(e.log, "%s: %d rounds; %s/s %v\n", name, len(t.rates), unit, rd)
	fmt.Fprintf(e.log, "%s: round wall time (us) %v\n", name, wd)
	fmt.Fprintf(e.log, "%s: set-up (s) %v\n", name, sd)
	if t.tr != nil {
		out.proc(t.mem, t.ops)
		out.layer["bench.trace_overhead_pct"] = (newDist(t.plainRates).q(0.5)/rd.q(0.5) - 1) * 100
	}
}
