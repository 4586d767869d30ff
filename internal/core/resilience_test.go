package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"hstreams/internal/fault"
	"hstreams/internal/metrics"
	"hstreams/internal/platform"
	"hstreams/internal/trace"
)

// Resilience-layer tests: retry determinism under a seeded injector,
// deadline expiry (at attempt boundaries and mid-transfer on a slow
// link), breaker quarantine with dirty-range flush + host re-route,
// and the randomized FIFO-semantic differential under fault load.
// All of them run Real mode on HSWPlusKNC(1) so the card attempt's
// injection calls are actually on the code path.

// incKernel adds one to every byte of every operand — trivially
// verifiable through arbitrary ToSink/compute/ToSource round trips.
func incKernel(ctx *KernelCtx) {
	for _, op := range ctx.Ops {
		for i := range op {
			op[i]++
		}
	}
}

// newChaosRT builds a Real-mode runtime on one KNC card with the
// given resilience configuration and the inc kernel registered.
func newChaosRT(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	cfg.Machine = platform.HSWPlusKNC(1)
	cfg.Mode = ModeReal
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	if cfg.Flight == nil {
		cfg.Flight = trace.NewFlight(1 << 12)
	}
	rt, err := Init(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Fini)
	rt.RegisterKernel("inc", incKernel)
	return rt
}

// TestRetryDeterministicCounts pins the retry machinery's determinism:
// a single-stream program (every action hazards with its predecessor,
// so execution is fully serial and each injection site sees one
// deterministic decision sequence) must produce the exact same retry
// count, the same per-span retry totals and the same — correct —
// buffer contents on every run with the same seed.
func TestRetryDeterministicCounts(t *testing.T) {
	const rounds = 6
	const size = 1024
	run := func() (retries float64, spanRetries int, data []byte) {
		reg := metrics.New()
		fl := trace.NewFlight(1 << 12)
		inj := fault.NewInjector(fault.Plan{
			Seed:          7,
			TransferError: 0.25,
			KernelError:   0.25,
		}, reg)
		rt := newChaosRT(t, Config{
			Metrics: reg,
			Flight:  fl,
			Faults:  inj,
			Retry:   RetryPolicy{Max: 20, Backoff: time.Microsecond},
		})
		st, err := rt.StreamCreate(rt.Card(0), 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rt.Alloc1D("buf", size)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b.host {
			b.host[i] = byte(i)
		}
		full := []Operand{{Buf: b, Off: 0, Len: size, Acc: InOut}}
		for r := 0; r < rounds; r++ {
			if _, err := st.EnqueueXferAll(b, ToSink); err != nil {
				t.Fatal(err)
			}
			if _, err := st.EnqueueCompute("inc", nil, full, platform.Cost{}); err != nil {
				t.Fatal(err)
			}
			if _, err := st.EnqueueXferAll(b, ToSource); err != nil {
				t.Fatal(err)
			}
		}
		rt.ThreadSynchronize()
		if err := rt.Err(); err != nil {
			t.Fatalf("chaos run failed (retry budget should absorb all faults): %v", err)
		}
		for _, sp := range trace.FilterRun(fl.Snapshot(), rt.RunID()) {
			spanRetries += sp.Retries
			if sp.DeadlineHit || sp.Rerouted {
				t.Errorf("span %d: unexpected deadline/reroute flags (%+v)", sp.ID, sp)
			}
		}
		return reg.Total("hstreams_retries_total"), spanRetries, append([]byte(nil), b.host...)
	}

	r1, s1, d1 := run()
	r2, s2, d2 := run()
	if r1 == 0 {
		t.Fatal("seeded plan injected no retried faults; pick a different seed")
	}
	if r1 != r2 || s1 != s2 {
		t.Errorf("retry counts not deterministic: run1 (counter %v, spans %d) vs run2 (counter %v, spans %d)", r1, s1, r2, s2)
	}
	if float64(s1) != r1 {
		t.Errorf("span retry total %d disagrees with hstreams_retries_total %v", s1, r1)
	}
	for i := range d1 {
		if want := byte(i) + rounds; d1[i] != want || d2[i] != want {
			t.Fatalf("byte %d: got %d / %d, want %d — retries corrupted data", i, d1[i], d2[i], want)
		}
	}
}

// TestFailedAttemptMovesNothing pins where the card attempt consults
// the injector: after the stamp, before any bytes move or any
// run-function descriptor is sent. Each case runs twice on one card
// with no retry budget — under its plan the action fails and leaves
// no trace on the card, under the zero plan the same program does
// move the bytes or send the descriptor, so the checks can fail.
func TestFailedAttemptMovesNothing(t *testing.T) {
	const size = 256
	type outcome struct {
		err         error
		cardNonZero int     // non-zero bytes of the card instance
		linkBytes   float64 // hstreams_link_bytes_total growth, HSW→KNC0
		kernels     int64   // counting-kernel runs
		descriptors int64   // run-function descriptors the sink received
		span        time.Duration
	}
	run := func(t *testing.T, plan fault.Plan, compute bool) outcome {
		t.Helper()
		reg := metrics.New()
		fl := trace.NewFlight(1 << 10)
		rt := newChaosRT(t, Config{Metrics: reg, Flight: fl, Faults: fault.NewInjector(plan, reg)})
		var o outcome
		var kernels, descriptors atomic.Int64
		rt.RegisterKernel("count", func(*KernelCtx) { kernels.Add(1) })
		rt.procs[1].RegisterFunction(trampolineName, func(args []int64, bufs [][]byte) {
			descriptors.Add(1)
			rt.trampoline(args, bufs)
		})
		st, err := rt.StreamCreate(rt.Card(0), 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rt.Alloc1D("buf", size)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b.host {
			b.host[i] = byte(i) | 1
		}
		toCard := map[string]string{"src": "HSW", "dst": "KNC0"}
		before := reg.Sum("hstreams_link_bytes_total", toCard)
		if compute {
			_, err = st.EnqueueCompute("count", nil, []Operand{{Buf: b, Off: 0, Len: size, Acc: InOut}}, platform.Cost{})
		} else {
			_, err = st.EnqueueXferAll(b, ToSink)
		}
		if err != nil {
			t.Fatal(err)
		}
		rt.ThreadSynchronize()
		o.err = rt.Err()
		for _, c := range b.instanceBytes(rt.Card(0)) {
			if c != 0 {
				o.cardNonZero++
			}
		}
		o.linkBytes = reg.Sum("hstreams_link_bytes_total", toCard) - before
		o.kernels, o.descriptors = kernels.Load(), descriptors.Load()
		spans := trace.FilterRun(fl.Snapshot(), rt.RunID())
		if len(spans) != 1 {
			t.Fatalf("%d spans, want 1", len(spans))
		}
		o.span = spans[0].Finish - spans[0].Launch
		return o
	}
	failed := func(t *testing.T, o outcome) {
		t.Helper()
		if !fault.IsTransient(o.err) {
			t.Fatalf("err = %v, want an injected fault", o.err)
		}
	}

	t.Run("TransferError", func(t *testing.T) {
		o := run(t, fault.Plan{Seed: 1, TransferError: 1}, false)
		failed(t, o)
		if o.cardNonZero != 0 || o.linkBytes != 0 {
			t.Errorf("failed ToSink changed the card: %d non-zero bytes, link bytes +%v", o.cardNonZero, o.linkBytes)
		}
		if o = run(t, fault.Plan{}, false); o.err != nil || o.cardNonZero != size || o.linkBytes != size {
			t.Errorf("clean ToSink: err %v, %d non-zero card bytes, link bytes +%v; want nil, %d, +%d", o.err, o.cardNonZero, o.linkBytes, size, size)
		}
	})
	t.Run("KernelError", func(t *testing.T) {
		o := run(t, fault.Plan{Seed: 1, KernelError: 1}, true)
		failed(t, o)
		if o.kernels != 0 || o.descriptors != 0 {
			t.Errorf("failed launch ran %d kernels and sent %d descriptors, want 0 and 0", o.kernels, o.descriptors)
		}
		if o = run(t, fault.Plan{}, true); o.err != nil || o.kernels != 1 || o.descriptors != 1 {
			t.Errorf("clean launch: err %v, %d kernels, %d descriptors; want nil, 1, 1", o.err, o.kernels, o.descriptors)
		}
	})
	t.Run("SlowLink", func(t *testing.T) {
		const slow = 2 * time.Millisecond
		o := run(t, fault.Plan{Seed: 1, SlowLink: 1, SlowLatency: slow, TransferError: 1}, false)
		failed(t, o)
		if o.span < slow {
			t.Errorf("failed slow attempt's span lasted %v, want at least %v", o.span, slow)
		}
		if o.cardNonZero != 0 || o.linkBytes != 0 {
			t.Errorf("failed ToSink changed the card: %d non-zero bytes, link bytes +%v", o.cardNonZero, o.linkBytes)
		}
	})
}

// TestDeadlineExpiry covers both ways an action can exhaust
// Config.Deadline: across retry attempts of a fast-failing link, and
// within a single attempt on a link that is slow to fail. Both must
// surface ErrDeadlineExceeded — a fatal error the taxonomy refuses to
// retry — and account it in hstreams_deadline_exceeded_total and the
// span's DeadlineHit flag.
func TestDeadlineExpiry(t *testing.T) {
	check := func(t *testing.T, plan fault.Plan, retry RetryPolicy, wantRetries func(int) bool) {
		t.Helper()
		reg := metrics.New()
		fl := trace.NewFlight(1 << 10)
		rt := newChaosRT(t, Config{
			Metrics:  reg,
			Flight:   fl,
			Faults:   fault.NewInjector(plan, reg),
			Retry:    retry,
			Deadline: time.Millisecond,
		})
		st, err := rt.StreamCreate(rt.Card(0), 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rt.Alloc1D("buf", 256)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.EnqueueXferAll(b, ToSink); err != nil {
			t.Fatal(err)
		}
		rt.ThreadSynchronize()
		err = rt.Err()
		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("got %v, want ErrDeadlineExceeded", err)
		}
		if fault.IsTransient(err) {
			t.Error("deadline errors must be fatal in the taxonomy, IsTransient said retryable")
		}
		if got := reg.Total("hstreams_deadline_exceeded_total"); got != 1 {
			t.Errorf("hstreams_deadline_exceeded_total = %v, want 1", got)
		}
		found := false
		for _, sp := range trace.FilterRun(fl.Snapshot(), rt.RunID()) {
			if sp.DeadlineHit {
				found = true
				if !wantRetries(sp.Retries) {
					t.Errorf("deadline span has %d retries, outside the expected range", sp.Retries)
				}
			}
		}
		if !found {
			t.Error("no span carries DeadlineHit")
		}
	}

	// Fast failures: the deadline is consumed by backoff between
	// attempts, so at least one retry happens before expiry.
	t.Run("across-attempts", func(t *testing.T) {
		check(t,
			fault.Plan{Seed: 1, TransferError: 1},
			RetryPolicy{Max: 100, Backoff: 200 * time.Microsecond},
			func(r int) bool { return r >= 1 },
		)
	})
	// Slow-to-fail link: the single first attempt sleeps past the
	// whole deadline before failing, so expiry is detected with zero
	// retries spent.
	t.Run("mid-transfer", func(t *testing.T) {
		check(t,
			fault.Plan{Seed: 1, TransferError: 1, SlowLink: 1, SlowLatency: 3 * time.Millisecond},
			RetryPolicy{Max: 5},
			func(r int) bool { return r == 0 },
		)
	})
}

// TestBreakerQuarantineReroute is the directed dirty-range
// correctness test: a card computes into half a buffer, the sink then
// starts failing every kernel launch, the breaker trips, and the
// quarantine flush must rescue exactly the card-dirty half — without
// clobbering host bytes the card never wrote — before re-routed
// actions continue on the host.
func TestBreakerQuarantineReroute(t *testing.T) {
	const size = 1024
	const dirtyLen = 512

	// phase1 runs the known-good prefix: full ToSink, then a card inc
	// over the dirty half. Identical across the probe and real passes,
	// so it consumes the same number of injector decisions in both.
	phase1 := func(t *testing.T, rt *Runtime) (*Stream, *Buf) {
		t.Helper()
		st, err := rt.StreamCreate(rt.Card(0), 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rt.Alloc1D("buf", size)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b.host {
			b.host[i] = byte(i)
		}
		if _, err := st.EnqueueXferAll(b, ToSink); err != nil {
			t.Fatal(err)
		}
		if _, err := st.EnqueueCompute("inc", nil,
			[]Operand{{Buf: b, Off: 0, Len: dirtyLen, Acc: InOut}}, platform.Cost{}); err != nil {
			t.Fatal(err)
		}
		rt.ThreadSynchronize()
		if err := rt.Err(); err != nil {
			t.Fatalf("clean phase failed: %v", err)
		}
		return st, b
	}

	// Probe pass: a zero plan, to count how many injector decisions
	// the warm-up (Init + phase 1) consumes. ArmAfter then phases the
	// real plan's faults to start exactly at phase 2.
	probe := fault.NewInjector(fault.Plan{}, metrics.New())
	rtProbe := newChaosRT(t, Config{Faults: probe})
	phase1(t, rtProbe)
	warmup := probe.Decisions()
	rtProbe.Fini()
	if warmup == 0 {
		t.Fatal("probe saw no injector decisions; the fabric/COI hooks are not wired")
	}

	// Real pass: every kernel launch after the warm-up fails, retries
	// are off and the breaker trips on the first failure.
	reg := metrics.New()
	fl := trace.NewFlight(1 << 10)
	rt := newChaosRT(t, Config{
		Metrics: reg,
		Flight:  fl,
		Faults:  fault.NewInjector(fault.Plan{Seed: 7, KernelError: 1, ArmAfter: warmup}, reg),
		Breaker: BreakerPolicy{Threshold: 1},
	})
	st, b := phase1(t, rt)

	// Host-side bytes the card never touched must survive the flush.
	b.host[600] = 0xAA

	// Phase 2: this inc's launch fails, trips the breaker, and the
	// action re-routes to the host — after the flush pulled the card's
	// dirty half (i+1) home. A re-routed ToSource is then a no-op.
	if _, err := st.EnqueueCompute("inc", nil,
		[]Operand{{Buf: b, Off: 0, Len: dirtyLen, Acc: InOut}}, platform.Cost{}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.EnqueueXferAll(b, ToSource); err != nil {
		t.Fatal(err)
	}
	rt.ThreadSynchronize()
	if err := rt.Err(); err != nil {
		t.Fatalf("quarantined run must complete on the host, got: %v", err)
	}

	for i := 0; i < dirtyLen; i++ {
		// card inc (+1), flush, host inc (+1): without the flush the
		// host would read i+1 and the data loss would be invisible to
		// a whole-buffer checksum of a single increment.
		if want := byte(i) + 2; b.host[i] != want {
			t.Fatalf("byte %d = %d, want %d — dirty range not flushed before re-route", i, b.host[i], want)
		}
	}
	if b.host[600] != 0xAA {
		t.Error("flush clobbered a host byte outside the card-dirty range")
	}
	for i := dirtyLen; i < size; i++ {
		if i != 600 && b.host[i] != byte(i) {
			t.Fatalf("byte %d = %d, want %d — flush wrote outside the dirty range", i, b.host[i], byte(i))
		}
	}

	card := rt.Card(0).Spec().Name
	if got := reg.Sum("hstreams_breaker_trips_total", map[string]string{"domain": card}); got != 1 {
		t.Errorf("breaker trips = %v, want 1", got)
	}
	if got := reg.Sum("hstreams_domain_quarantined", map[string]string{"domain": card}); got != 1 {
		t.Errorf("quarantined gauge = %v, want 1", got)
	}
	if got := reg.Sum("hstreams_rerouted_total", map[string]string{"domain": card}); got != 2 {
		t.Errorf("rerouted = %v, want 2 (the compute and the ToSource)", got)
	}
	rerouted := 0
	for _, sp := range trace.FilterRun(fl.Snapshot(), rt.RunID()) {
		if sp.Rerouted {
			rerouted++
		}
	}
	if rerouted != 2 {
		t.Errorf("%d spans carry Rerouted, want 2", rerouted)
	}
}

// TestBreakerFlushAfterFree frees a card-dirty buffer before the
// breaker trips. Reclamation must drop the buffer from every domain's
// dirty set: the quarantine flush used to index the reclaimed buffer's
// dropped instances and panic, and the set kept every freed buffer
// reachable.
func TestBreakerFlushAfterFree(t *testing.T) {
	// phase1 dirties scratch on the card, drains and frees it, and
	// consumes the same injector decisions in the probe and real pass.
	phase1 := func(t *testing.T, rt *Runtime) (*Stream, *Buf) {
		t.Helper()
		st, err := rt.StreamCreate(rt.Card(0), 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rt.Alloc1D("buf", 256)
		if err != nil {
			t.Fatal(err)
		}
		scratch, err := rt.Alloc1D("scratch", 256)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.EnqueueCompute("inc", nil, []Operand{scratch.All(InOut)}, platform.Cost{}); err != nil {
			t.Fatal(err)
		}
		if err := st.Synchronize(); err != nil {
			t.Fatalf("clean phase failed: %v", err)
		}
		if err := scratch.Free(); err != nil {
			t.Fatal(err)
		}
		return st, b
	}
	probe := fault.NewInjector(fault.Plan{}, metrics.New())
	rtProbe := newChaosRT(t, Config{Faults: probe})
	phase1(t, rtProbe)
	warmup := probe.Decisions()
	rtProbe.Fini()

	reg := metrics.New()
	rt := newChaosRT(t, Config{
		Metrics: reg,
		Faults:  fault.NewInjector(fault.Plan{Seed: 7, KernelError: 1, ArmAfter: warmup}, reg),
		Breaker: BreakerPolicy{Threshold: 1},
	})
	st, b := phase1(t, rt)
	dr := rt.exec.(*realExec).res.dom[rt.Card(0).Index()]
	dr.mu.Lock()
	left := len(dr.dirty)
	dr.mu.Unlock()
	if left != 0 {
		t.Errorf("%d freed buffer(s) still in the card's dirty set", left)
	}

	// This launch fails and trips the breaker; the flush runs, and the
	// compute re-routes to the host.
	if _, err := st.EnqueueCompute("inc", nil, []Operand{b.All(InOut)}, platform.Cost{}); err != nil {
		t.Fatal(err)
	}
	if err := st.Synchronize(); err != nil {
		t.Fatalf("quarantined run must complete on the host, got: %v", err)
	}
	for i, v := range b.host {
		if v != 1 {
			t.Fatalf("byte %d = %d after the re-routed inc, want 1", i, v)
		}
	}
	if got := reg.Total("hstreams_breaker_trips_total"); got != 1 {
		t.Errorf("breaker trips = %v, want 1", got)
	}
}

// TestFIFOSemanticUnderFaults is the breaker/retry counterpart of the
// dependence-index differential: randomized multi-stream programs on
// a card domain, under transfer and kernel fault load heavy enough to
// trip the breaker, must still finish without error and satisfy the
// dynamic FIFO-with-overlap check against the naive hazard relation —
// re-routing must not reorder hazardous pairs.
func TestFIFOSemanticUnderFaults(t *testing.T) {
	for seed := int64(30); seed < 33; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			p := genDiffProg(rand.New(rand.NewSource(seed)), mixedShape(3, 25))
			reg := metrics.New()
			inj := fault.NewInjector(fault.Plan{
				Seed:          uint64(seed),
				TransferError: 0.2,
				KernelError:   0.2,
				SlowLink:      0.2,
				SlowLatency:   50 * time.Microsecond,
			}, reg)
			rt := newChaosRT(t, Config{
				Metrics: reg,
				Faults:  inj,
				Retry:   RetryPolicy{Max: 50, Backoff: time.Microsecond},
				Breaker: BreakerPolicy{Threshold: 4},
			})
			rt.RegisterKernel("nop", func(*KernelCtx) {})
			rt.RegisterKernel("gate", func(*KernelCtx) {})
			h := &diffHarness{rt: rt, actions: make([]*Action, len(p.acts))}
			for s := 0; s < p.nStreams; s++ {
				st, err := rt.StreamCreate(rt.Card(0), 2*s, 2)
				if err != nil {
					t.Fatal(err)
				}
				h.streams = append(h.streams, st)
			}
			for bi := 0; bi < p.nBufs; bi++ {
				buf, err := rt.Alloc1D(fmt.Sprintf("d%d", bi), p.bufSize)
				if err != nil {
					t.Fatal(err)
				}
				h.bufs = append(h.bufs, buf)
			}
			for i := range p.acts {
				h.enqueueOne(t, p, i)
			}
			rt.ThreadSynchronize()
			if err := rt.Err(); err != nil {
				t.Fatalf("faulted run must be absorbed by retry/re-route, got: %v", err)
			}
			checkFIFOSemantic(t, p, h.actions)
			if reg.Total("hstreams_faults_injected_total") == 0 {
				t.Error("plan injected nothing; the differential ran fault-free")
			}
			if reg.Total("hstreams_retries_total") == 0 {
				t.Error("no retries recorded under a 20% fault rate")
			}
		})
	}
}

// TestRetryPolicyWait pins the backoff schedule: exponential growth,
// the 50×Backoff cap, the shift-overflow clamp, and jitter that is
// deterministic in (seed, action, attempt) and spread over ±25%. The
// literals are the chaos figure's schedule (hsbench runChaos, Backoff
// 50 µs, seed 1) from when the cap and the jitter were per-policy
// fields, so the schedule cannot drift.
func TestRetryPolicyWait(t *testing.T) {
	if w := (RetryPolicy{}).wait(1, 1, 3); w != 0 {
		t.Errorf("zero policy waits %v, want 0", w)
	}
	p := RetryPolicy{Backoff: 50 * time.Microsecond}
	for id, want := range map[uint64][]time.Duration{
		1:  {60314, 98678, 178041, 375879, 911863, 1429728, 2766378, 2979778},
		42: {43409, 105505, 162088, 485404, 773264, 1644124, 2340508, 2262602},
	} {
		for attempt, w := range want {
			if got := p.wait(1, id, attempt); got != w {
				t.Errorf("action %d attempt %d: wait %v, want %v", id, attempt, got, w)
			}
		}
	}
	j := RetryPolicy{Backoff: time.Millisecond}
	for attempt := 0; attempt < 8; attempt++ {
		base := min(time.Millisecond<<attempt, 50*time.Millisecond)
		lo, hi := base*3/4, base*5/4
		for id := uint64(0); id < 50; id++ {
			if w := j.wait(11, id, attempt); w < lo || w >= hi {
				t.Errorf("action %d attempt %d: wait %v outside [%v, %v)", id, attempt, w, lo, hi)
			}
		}
	}
	if a, b := j.wait(11, 3, 0), j.wait(12, 3, 0); a == b {
		t.Errorf("seeds 11 and 12 jitter alike: %v", a)
	}
	// Attempts beyond the shift clamp reuse attempt 20's schedule
	// instead of overflowing the shift.
	if a, b := j.wait(11, 5, 20), j.wait(11, 5, 40); a != b {
		t.Errorf("over-clamp attempt differs: %v vs %v", a, b)
	}
}

// TestIvset pins the dirty-range set: coalescing unions, splitting
// subtraction, and the non-aliasing of the rebuilt slices.
func TestIvset(t *testing.T) {
	var s ivset
	s.add(10, 20)
	s.add(30, 40)
	s.add(50, 60)
	if len(s.ivs) != 3 || s.total() != 30 {
		t.Fatalf("disjoint adds: %+v", s.ivs)
	}
	s.add(20, 30) // exactly adjacent on both sides: [10,40) ∪ [50,60)
	if len(s.ivs) != 2 || s.ivs[0] != (byteiv{10, 40}) {
		t.Fatalf("adjacency coalesce: %+v", s.ivs)
	}
	s.add(0, 5) // strictly left of everything (insert-before path)
	if len(s.ivs) != 3 || s.ivs[0] != (byteiv{0, 5}) {
		t.Fatalf("front insert: %+v", s.ivs)
	}
	s.add(0, 100) // absorbs all
	if len(s.ivs) != 1 || s.ivs[0] != (byteiv{0, 100}) {
		t.Fatalf("absorb all: %+v", s.ivs)
	}
	s.remove(40, 60) // split
	if len(s.ivs) != 2 || s.ivs[0] != (byteiv{0, 40}) || s.ivs[1] != (byteiv{60, 100}) {
		t.Fatalf("split: %+v", s.ivs)
	}
	s.remove(30, 70) // trims both
	if s.total() != 60 || s.ivs[0].hi != 30 || s.ivs[1].lo != 70 {
		t.Fatalf("trim: %+v", s.ivs)
	}
	s.remove(0, 100)
	if len(s.ivs) != 0 || s.total() != 0 {
		t.Fatalf("clear: %+v", s.ivs)
	}
	s.add(5, 5) // empty ranges are ignored
	s.remove(1, 1)
	if len(s.ivs) != 0 {
		t.Fatalf("empty-range ops: %+v", s.ivs)
	}
}
