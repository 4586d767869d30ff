package health

import (
	"math"
	"strconv"
	"sync"
	"testing"
	"time"

	"hstreams/internal/core"
	"hstreams/internal/metrics"
	"hstreams/internal/platform"
	"hstreams/internal/telemetry"
)

// base is an arbitrary fixed origin so synthetic series and ticks are
// deterministic.
var base = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// ---- rule evaluation ----

func TestRuleThresholdConvention(t *testing.T) {
	r := Rule{Warn: 0, Critical: 10}
	if r.fires(0, 0) {
		t.Fatal("zero threshold fired on zero value")
	}
	if !r.fires(0.5, 0) {
		t.Fatal("zero threshold did not fire on positive value")
	}
	if !r.fires(10, 10) || r.fires(9.9, 10) {
		t.Fatal("nonzero threshold must fire at value >= threshold")
	}
	if r.fires(1e12, math.Inf(1)) {
		t.Fatal("+Inf threshold must never fire")
	}
	below := Rule{Below: true}
	if !below.fires(-1, 0) || below.fires(1, 0) {
		t.Fatal("Below must invert the comparison")
	}
	if below.fires(-1e12, math.Inf(-1)) {
		t.Fatal("-Inf threshold must never fire under Below")
	}
	if r.fires(math.NaN(), 1) || r.fires(1, math.NaN()) {
		t.Fatal("NaN never fires")
	}
}

func TestRuleEvalThreshold(t *testing.T) {
	st := telemetry.NewStore(time.Minute, 16)
	st.Put("hstreams_domain_quarantined", map[string]string{"domain": "KNC0"}, base, 0)
	rule := Rule{Name: "q", Kind: RuleThreshold, Series: "hstreams_domain_quarantined"}
	if v := rule.Eval(st); v.Severity != SevOK {
		t.Fatalf("zero gauge severity = %v, want ok", v.Severity)
	}
	st.Put("hstreams_domain_quarantined", map[string]string{"domain": "KNC0"}, base.Add(time.Second), 1)
	v := rule.Eval(st)
	// Warn and Critical both zero → any occurrence is critical
	// (Critical is checked first).
	if v.Severity != SevCritical || v.Value != 1 {
		t.Fatalf("verdict = %+v, want critical value 1", v)
	}
	if len(v.Offending) != 1 || v.Offending[0].Labels["domain"] != "KNC0" {
		t.Fatalf("offending = %+v, want the KNC0 series", v.Offending)
	}
}

func TestRuleEvalNoData(t *testing.T) {
	st := telemetry.NewStore(time.Minute, 16)
	for _, r := range DefaultRules() {
		if v := r.Eval(st); v.Severity != SevOK || len(v.Offending) != 0 {
			t.Fatalf("rule %s on empty store = %+v, want ok", r.Name, v)
		}
	}
	if v := (Rule{Kind: RuleThreshold, Series: "x"}).Eval(nil); v.Severity != SevOK {
		t.Fatalf("nil store severity = %v, want ok", v.Severity)
	}
}

func TestRuleEvalRateWorstSeries(t *testing.T) {
	st := telemetry.NewStore(time.Minute, 16)
	a := map[string]string{"domain": "KNC0"}
	b := map[string]string{"domain": "KNC1"}
	st.Put("r_total", a, base, 0)
	st.Put("r_total", a, base.Add(10*time.Second), 10) // 1/s
	st.Put("r_total", b, base, 0)
	st.Put("r_total", b, base.Add(10*time.Second), 50) // 5/s
	rule := Rule{Name: "r", Kind: RuleRate, Series: "r_total", Warn: 2, Critical: 4}
	v := rule.Eval(st)
	if v.Severity != SevCritical || v.Value != 5 {
		t.Fatalf("verdict = %+v, want critical governed by the worst series (5/s)", v)
	}
	// Only the series past warn level is offending, worst first.
	if len(v.Offending) != 1 || v.Offending[0].Labels["domain"] != "KNC1" {
		t.Fatalf("offending = %+v, want only KNC1", v.Offending)
	}
}

func TestRuleEvalBurnRate(t *testing.T) {
	st := telemetry.NewStore(time.Minute, 16)
	st.Put("err_total", nil, base, 0)
	st.Put("err_total", nil, base.Add(10*time.Second), 2)
	st.Put("all_total", nil, base, 0)
	st.Put("all_total", nil, base.Add(10*time.Second), 1000)
	rule := Rule{
		Name: "burn", Kind: RuleBurnRate,
		Series: "err_total", Denominator: "all_total",
		Budget: 0.001, Warn: 1, Critical: 10,
	}
	v := rule.Eval(st)
	// Error ratio 0.002 against a 0.001 budget: burning at 2x.
	if math.Abs(v.Value-2) > 1e-9 || v.Severity != SevWarn {
		t.Fatalf("burn verdict = %+v, want warn at 2x", v)
	}
	// Zero denominator → zero burn, not NaN/Inf.
	empty := telemetry.NewStore(time.Minute, 16)
	empty.Put("err_total", nil, base, 5)
	zero := rule
	zero.Denominator = "absent_total"
	if v := zero.Eval(empty); v.Value != 0 || v.Severity != SevOK {
		t.Fatalf("zero-denominator verdict = %+v, want ok 0", v)
	}
}

func TestRuleEvalQuantile(t *testing.T) {
	st := telemetry.NewStore(time.Minute, 16)
	bounds := []string{"0.01", "0.1", "+Inf"}
	putBuckets(st, "lat_seconds", nil, base, bounds, []float64{0, 0, 0})
	putBuckets(st, "lat_seconds", nil, base.Add(10*time.Second), bounds, []float64{90, 100, 100})
	rule := Rule{Name: "p99", Kind: RuleQuantile, Series: "lat_seconds", Quantile: 0.99, Warn: 0.05, Critical: math.Inf(1)}
	v := rule.Eval(st)
	// Rank 99 of 100 interpolates within (0.01, 0.1].
	if v.Severity != SevWarn {
		t.Fatalf("quantile verdict = %+v, want warn (p99 > 50ms)", v)
	}
	if v.Value <= 0.05 || v.Value > 0.1 {
		t.Fatalf("p99 = %v, want in (0.05, 0.1]", v.Value)
	}
	// Empty window (flat buckets) → no data → ok.
	flat := telemetry.NewStore(time.Minute, 16)
	putBuckets(flat, "lat_seconds", nil, base, bounds, []float64{90, 100, 100})
	putBuckets(flat, "lat_seconds", nil, base.Add(time.Second), bounds, []float64{90, 100, 100})
	putBuckets(flat, "lat_seconds", nil, base.Add(40*time.Second), bounds, []float64{90, 100, 100})
	flatRule := rule
	flatRule.Window = 5 * time.Second
	if v := flatRule.Eval(flat); v.Severity != SevOK {
		t.Fatalf("empty-window quantile = %+v, want ok (no data is not an alert)", v)
	}
}

// putBuckets records one cumulative-histogram snapshot the way the
// sampler would (mirrors the telemetry package's test helper): bounds
// end with "+Inf", and cum holds one count per bound.
func putBuckets(st *telemetry.Store, name string, labels map[string]string, at time.Time, bounds []string, cum []float64) {
	h := metrics.HistSample{Name: name, Labels: labels, Bounds: []float64{}, Count: int64(cum[len(cum)-1])}
	for i, le := range bounds {
		if le != "+Inf" {
			b, _ := strconv.ParseFloat(le, 64)
			h.Bounds = append(h.Bounds, b)
		}
		h.Cumulative = append(h.Cumulative, int64(cum[i]))
	}
	st.PutHistogram(h, at)
}

// ---- stall classification ----

func TestClassifyCauses(t *testing.T) {
	cases := []struct {
		name          string
		p             core.StreamStatus
		deadlocked    bool
		linkSaturated bool
		want          StallCause
	}{
		{"quarantine wins", core.StreamStatus{Quarantined: true, Launched: 0}, true, true, CauseQuarantine},
		{"deadlock", core.StreamStatus{Launched: 0}, true, false, CauseDeadlock},
		{"dep-stall", core.StreamStatus{Launched: 0}, false, false, CauseDepStall},
		{"link-saturation", core.StreamStatus{Launched: 2}, false, true, CauseLinkSaturation},
		{"unknown", core.StreamStatus{Launched: 2}, false, false, CauseUnknown},
	}
	for _, c := range cases {
		if got := classify(c.p, c.deadlocked, c.linkSaturated); got != c.want {
			t.Errorf("%s: classify = %v, want %v", c.name, got, c.want)
		}
	}
	if causeSeverity(CauseDeadlock) != SevCritical {
		t.Error("deadlock must be critical")
	}
	if causeSeverity(CauseDepStall) != SevWarn {
		t.Error("dep-stall must warn")
	}
}

// ---- journal ----

func TestJournalRing(t *testing.T) {
	reg := metrics.New()
	j := NewJournal(100, reg) // rounds up to 128
	if j.Cap() != 128 {
		t.Fatalf("Cap = %d, want power-of-two round-up 128", j.Cap())
	}
	for i := 0; i < 200; i++ {
		seq := j.Record(Event{When: base, Kind: KindBreakerTrip, Domain: "KNC0"})
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if j.Total() != 200 || j.Dropped() != 200-128 {
		t.Fatalf("Total/Dropped = %d/%d, want 200/72", j.Total(), j.Dropped())
	}
	snap := j.Snapshot()
	if len(snap) != 128 {
		t.Fatalf("snapshot has %d events, want 128", len(snap))
	}
	for i, ev := range snap {
		if want := uint64(200 - 128 + 1 + i); ev.Seq != want {
			t.Fatalf("snapshot[%d].Seq = %d, want %d (oldest first, no gaps)", i, ev.Seq, want)
		}
	}
	if got := reg.Total("hstreams_events_total"); got != 200 {
		t.Fatalf("hstreams_events_total = %v, want 200", got)
	}
	// Nil journal is a safe no-op everywhere.
	var nilJ *Journal
	if nilJ.Record(Event{}) != 0 || nilJ.Snapshot() != nil || nilJ.Cap() != 0 {
		t.Fatal("nil journal must be inert")
	}
}

// TestJournalLapping: eight writers lap a journal of eight, 200 rounds.
// Once they finish, the journal must hold Cap() events, the newest
// Cap() seqs in increasing order, however the writers interleaved. A
// writer lapped before it stores must drop its event; storing it
// anyway would hide the newer event from every later snapshot.
func TestJournalLapping(t *testing.T) {
	const writers, perWriter, rounds = 8, 2000, 200
	for round := range rounds {
		j := NewJournal(8, nil)
		var wg sync.WaitGroup
		for range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range perWriter {
					j.Record(Event{Kind: KindDeadlineHit})
				}
			}()
		}
		wg.Wait()
		snap := j.Snapshot()
		if len(snap) != j.Cap() {
			t.Fatalf("round %d: final snapshot holds %d of %d events", round, len(snap), j.Cap())
		}
		for i, ev := range snap {
			if want := j.Total() - uint64(j.Cap()-1-i); ev.Seq != want {
				t.Fatalf("round %d: snapshot[%d].Seq = %d, want %d", round, i, ev.Seq, want)
			}
		}
	}
}

func TestJournalCoreEventMapping(t *testing.T) {
	j := NewJournal(16, nil)
	j.CoreEvent(core.RuntimeEvent{Kind: core.EvBreakerTrip, Domain: "KNC0"})
	j.CoreEvent(core.RuntimeEvent{Kind: core.EvQuarantineFlush, Domain: "KNC0", Err: "flush failed"})
	j.CoreEvent(core.RuntimeEvent{Kind: core.EvRetriesExhausted, Stream: "s1", Action: 42, Err: "boom"})
	j.CoreEvent(core.RuntimeEvent{Kind: core.EvDeadlineHit, Stream: "s1", Action: 43})
	j.CoreEvent(core.RuntimeEvent{Kind: core.EvQuarantineCleared, Domain: "KNC0"})
	snap := j.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("got %d events, want 5", len(snap))
	}
	if snap[0].Kind != KindBreakerTrip || snap[0].Severity != SevCritical {
		t.Fatalf("trip = %+v, want critical breaker-trip", snap[0])
	}
	if snap[1].Kind != KindQuarantineFlush || snap[1].Severity != SevCritical || snap[1].Detail != "flush failed" {
		t.Fatalf("failed flush = %+v, want critical with detail", snap[1])
	}
	if snap[2].Kind != KindRetriesExhausted || snap[2].Span != 42 || snap[2].Severity != SevWarn {
		t.Fatalf("exhausted = %+v, want warn with span 42", snap[2])
	}
	if snap[3].Kind != KindDeadlineHit || snap[3].Span != 43 {
		t.Fatalf("deadline = %+v, want span 43", snap[3])
	}
	if snap[4].Kind != KindQuarantineCleared || snap[4].Severity != SevOK {
		t.Fatalf("cleared = %+v, want ok", snap[4])
	}
}

// ---- engine ----

// newTestEngine builds an engine over private instances with no live
// runtimes.
func newTestEngine(st *telemetry.Store, rules []Rule) *Engine {
	reg := metrics.New()
	return New(Options{
		Store:    st,
		Registry: reg,
		Journal:  NewJournal(64, reg),
		Runtimes: func() []*core.Runtime { return nil },
		Rules:    rules,
	})
}

func TestEngineTickTransitions(t *testing.T) {
	st := telemetry.NewStore(time.Minute, 16)
	rules := []Rule{{Name: "errs", Kind: RuleThreshold, Series: "errs"}}
	e := newTestEngine(st, rules)

	e.Tick(base)
	rep := e.ReportAt(base)
	if rep.Severity != SevOK || !rep.Live || !rep.Ready {
		t.Fatalf("initial report = sev %v live %v ready %v, want ok/live/ready", rep.Severity, rep.Live, rep.Ready)
	}

	st.Put("errs", nil, base.Add(time.Second), 3)
	e.Tick(base.Add(2 * time.Second))
	rep = e.ReportAt(base.Add(2 * time.Second))
	if rep.Severity != SevCritical || rep.Ready {
		t.Fatalf("firing report = sev %v ready %v, want critical/not-ready", rep.Severity, rep.Ready)
	}
	if len(rep.Rules) != 1 || rep.Rules[0].Severity != SevCritical {
		t.Fatalf("rule verdicts = %+v", rep.Rules)
	}
	// The ok→critical transition is journaled exactly once.
	var transitions int
	for _, ev := range e.Journal().Snapshot() {
		if ev.Kind == KindRuleTransition && ev.Rule == "errs" {
			transitions++
		}
	}
	if transitions != 1 {
		t.Fatalf("rule transitions journaled = %d, want 1", transitions)
	}
	// Re-ticking at the same severity does not re-journal.
	e.Tick(base.Add(3 * time.Second))
	transitions = 0
	for _, ev := range e.Journal().Snapshot() {
		if ev.Kind == KindRuleTransition {
			transitions++
		}
	}
	if transitions != 1 {
		t.Fatalf("steady-state re-journaled transitions: %d", transitions)
	}

	// Clearing: the gauge back at zero recovers the verdict.
	st.Put("errs", nil, base.Add(4*time.Second), 0)
	e.Tick(base.Add(5 * time.Second))
	rep = e.ReportAt(base.Add(5 * time.Second))
	if rep.Severity != SevOK || !rep.Ready {
		t.Fatalf("recovered report = sev %v ready %v, want ok/ready", rep.Severity, rep.Ready)
	}
}

func TestEngineLiveness(t *testing.T) {
	e := newTestEngine(telemetry.NewStore(time.Minute, 8), []Rule{})
	rep := e.ReportAt(base)
	if rep.Live || rep.Ready {
		t.Fatal("never-ticked engine must be not-live, not-ready")
	}
	e.Tick(base)
	if rep := e.ReportAt(base.Add(2 * time.Second)); !rep.Live {
		t.Fatal("recently-ticked engine must be live")
	}
	if rep := e.ReportAt(base.Add(DefLiveness + time.Second)); rep.Live {
		t.Fatal("stale engine must report not-live")
	}
}

func TestEngineTickIfStale(t *testing.T) {
	e := newTestEngine(telemetry.NewStore(time.Minute, 8), []Rule{})
	if !e.TickIfStale(base) {
		t.Fatal("first TickIfStale must tick")
	}
	if e.TickIfStale(base.Add(100 * time.Millisecond)) {
		t.Fatal("fresh engine must not re-tick")
	}
	if !e.TickIfStale(base.Add(2 * DefMaxStale)) {
		t.Fatal("stale engine must re-tick")
	}
}

// TestEngineWatchdogDepStall drives a real Real-mode runtime into a
// dependence stall — one stream's kernel blocked on a gate, a second
// stream's action dependence-gated behind it — and checks the
// watchdog detects, classifies and then clears it.
func TestEngineWatchdogDepStall(t *testing.T) {
	reg := metrics.New()
	st := telemetry.NewStore(time.Minute, 16)
	rt, err := core.Init(core.Config{Machine: platform.HSWPlusKNC(0), Mode: core.ModeReal, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	released := false
	release := func() {
		if !released {
			released = true
			close(gate)
		}
	}
	defer func() { release(); rt.Fini() }()
	rt.RegisterKernel("block", func(*core.KernelCtx) { <-gate })
	rt.RegisterKernel("nop", func(*core.KernelCtx) {})

	host := rt.Host()
	half := host.Spec().Cores() / 2
	sBlock, err := rt.StreamCreate(host, 0, half)
	if err != nil {
		t.Fatal(err)
	}
	sDep, err := rt.StreamCreate(host, half, half)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rt.Alloc1D("b", 64)
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := sBlock.EnqueueCompute("block", nil, []core.Operand{b.All(core.InOut)}, platform.Cost{})
	if err != nil {
		t.Fatal(err)
	}
	// Event-dependence on the blocked action (cross-stream ordering is
	// explicit): never launched while the gate holds.
	dep, err := sDep.EnqueueComputeDeps("nop", nil, []core.Operand{b.All(core.InOut)}, platform.Cost{}, []*core.Action{blocked})
	if err != nil {
		t.Fatal(err)
	}

	e := New(Options{
		Store:    st,
		Registry: reg,
		Journal:  NewJournal(64, reg),
		Runtimes: func() []*core.Runtime { return []*core.Runtime{rt} },
		Rules:    []Rule{},
	})
	e.horizon = 10 * time.Millisecond
	// First tick seeds progress memory; the second, past the horizon,
	// must declare the dependence-gated stream stalled. The blocked
	// stream has launched work, so the runtime is not deadlocked and
	// sDep classifies as dep-stall.
	e.Tick(base)
	e.Tick(base.Add(time.Second))
	rep := e.ReportAt(base.Add(time.Second))
	var depStall *Stall
	for i := range rep.Stalls {
		if rep.Stalls[i].Stream == sDep.Name() {
			depStall = &rep.Stalls[i]
		}
	}
	if depStall == nil {
		t.Fatalf("no stall for %s in %+v", sDep.Name(), rep.Stalls)
	}
	if depStall.Cause != CauseDepStall || depStall.Severity != SevWarn {
		t.Fatalf("stall = %+v, want warn dep-stall", depStall)
	}
	if rep.Severity != SevWarn {
		t.Fatalf("report severity = %v, want warn from the stall", rep.Severity)
	}

	// Release the gate, let both actions retire, and the next tick
	// clears the stall and journals the recovery.
	release()
	if err := dep.Wait(); err != nil {
		t.Fatal(err)
	}
	rt.ThreadSynchronize()
	e.Tick(base.Add(2 * time.Second))
	rep = e.ReportAt(base.Add(2 * time.Second))
	if len(rep.Stalls) != 0 {
		t.Fatalf("stalls after recovery = %+v, want none", rep.Stalls)
	}
	var sawStall, sawClear bool
	for _, ev := range e.Journal().Snapshot() {
		switch {
		case ev.Kind == KindWatchdogStall && ev.Stream == sDep.Name():
			sawStall = true
		case ev.Kind == KindWatchdogClear && ev.Stream == sDep.Name():
			sawClear = true
		}
	}
	if !sawStall || !sawClear {
		t.Fatalf("journal stall/clear = %v/%v, want both", sawStall, sawClear)
	}
}

// TestStallNotMaskedByOtherRuntime checks that the watchdog counts
// retirement per runtime: two runtimes on one registry own same-named
// streams, and runtime B retiring work on its stream must not read as
// progress on runtime A's wedged one.
func TestStallNotMaskedByOtherRuntime(t *testing.T) {
	reg := metrics.New()
	newRT := func() (*core.Runtime, *core.Stream) {
		rt, err := core.Init(core.Config{Machine: platform.HSWPlusKNC(0), Mode: core.ModeReal, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		s, err := rt.StreamCreate(rt.Host(), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		return rt, s
	}
	rtA, sA := newRT()
	rtB, sB := newRT()
	if sA.Name() != sB.Name() {
		t.Fatalf("stream names %q and %q differ; the test needs them equal", sA.Name(), sB.Name())
	}
	gate := make(chan struct{})
	defer func() { close(gate); rtA.Fini(); rtB.Fini() }()
	rtA.RegisterKernel("block", func(*core.KernelCtx) { <-gate })
	rtB.RegisterKernel("nop", func(*core.KernelCtx) {})
	if _, err := sA.EnqueueCompute("block", nil, nil, platform.Cost{}); err != nil {
		t.Fatal(err)
	}

	e := New(Options{
		Store:    telemetry.NewStore(time.Minute, 16),
		Registry: reg,
		Journal:  NewJournal(64, reg),
		Runtimes: func() []*core.Runtime { return []*core.Runtime{rtA} },
		Rules:    []Rule{},
	})
	e.horizon = 50 * time.Millisecond
	var at time.Time
	for i := 0; i < 10; i++ {
		a, err := sB.EnqueueCompute("nop", nil, nil, platform.Cost{})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Wait(); err != nil {
			t.Fatal(err)
		}
		at = base.Add(time.Duration(i) * 20 * time.Millisecond)
		e.Tick(at)
	}
	for _, st := range e.ReportAt(at).Stalls {
		if st.Run == rtA.RunID() && st.Stream == sA.Name() {
			return
		}
	}
	t.Fatalf("%s of runtime A not reported stalled while runtime B retired work on its namesake: %+v",
		sA.Name(), e.ReportAt(at).Stalls)
}

// TestEngineConcurrentSnapshotWhileFiring exercises Tick, ReportAt,
// Journal.Snapshot and store writes from concurrent goroutines — the
// -race gate for the engine's locking and the journal's lock-free
// publication.
func TestEngineConcurrentSnapshotWhileFiring(t *testing.T) {
	st := telemetry.NewStore(time.Minute, 32)
	rules := []Rule{
		{Name: "errs", Kind: RuleThreshold, Series: "errs"},
		{Name: "rate", Kind: RuleRate, Series: "c_total", Warn: 1, Critical: 100},
	}
	e := newTestEngine(st, rules)
	var wg sync.WaitGroup
	const iters = 300
	wg.Add(4)
	go func() { // store writer: flips the rule between ok and firing
		defer wg.Done()
		for i := 0; i < iters; i++ {
			at := base.Add(time.Duration(i) * 10 * time.Millisecond)
			st.Put("errs", nil, at, float64(i%2))
			st.Put("c_total", nil, at, float64(i))
		}
	}()
	go func() { // ticker
		defer wg.Done()
		for i := 0; i < iters; i++ {
			e.Tick(base.Add(time.Duration(i) * 10 * time.Millisecond))
		}
	}()
	go func() { // reporter
		defer wg.Done()
		for i := 0; i < iters; i++ {
			rep := e.ReportAt(base.Add(time.Duration(i) * 10 * time.Millisecond))
			_ = rep.Format()
		}
	}()
	go func() { // journal reader: snapshots must stay seq-monotonic
		defer wg.Done()
		for i := 0; i < iters; i++ {
			snap := e.Journal().Snapshot()
			for k := 1; k < len(snap); k++ {
				if snap[k].Seq <= snap[k-1].Seq {
					t.Errorf("snapshot seqs not strictly increasing: %d then %d", snap[k-1].Seq, snap[k].Seq)
					return
				}
			}
		}
	}()
	wg.Wait()
}

func TestMarshalRoundTrips(t *testing.T) {
	for _, c := range []struct {
		val interface {
			MarshalText() ([]byte, error)
		}
		want string
	}{
		{SevCritical, "critical"},
		{RuleBurnRate, "burn-rate"},
		{CauseQuarantine, "quarantine-backlog"},
		{KindWatchdogStall, "watchdog-stall"},
	} {
		b, err := c.val.MarshalText()
		if err != nil || string(b) != c.want {
			t.Errorf("MarshalText(%v) = %q, %v; want %q", c.val, b, err, c.want)
		}
	}
	var s Severity
	if err := s.UnmarshalText([]byte("warn")); err != nil || s != SevWarn {
		t.Errorf("severity round-trip: %v, %v", s, err)
	}
	var k EventKind
	if err := k.UnmarshalText([]byte("nope")); err == nil {
		t.Error("unknown kind must not parse")
	}
	var c StallCause
	if err := c.UnmarshalText([]byte("deadlock")); err != nil || c != CauseDeadlock {
		t.Errorf("cause round-trip: %v, %v", c, err)
	}
	var rk RuleKind
	if err := rk.UnmarshalText([]byte("quantile")); err != nil || rk != RuleQuantile {
		t.Errorf("rule-kind round-trip: %v, %v", rk, err)
	}
}
