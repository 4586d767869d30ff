// Package fault is the deterministic fault-injection layer of the
// stack. The paper's platform (hStreams → COI → SCIF over PCIe, §III)
// ran on a physically lossy fabric — card resets, ECC stalls and
// failed PCIe transfers were routine on KNC deployments — and a
// runtime that aims to survive production traffic has to be tested
// against exactly those failures. This package supplies them on
// demand:
//
//   - a Plan describes the failure modes to inject (transfer errors,
//     slow/degraded links, kernel-launch failures, sink-process death
//     episodes), each with its own probability;
//   - an Injector is consulted by the scheduler's card attempt in
//     internal/core — before every card DMA and every run-function
//     launch, and before each read of the quarantine flush — and
//     answers with extra latency and/or an injected error;
//   - IsTransient tells core's retry machinery which failures are
//     worth retrying: an injected *Error is, anything else is final.
//
// Injection is deterministic and seedable: every decision is a pure
// function of the plan seed, the decision site (one sequence per link
// direction or sink domain) and that site's decision ordinal, so a
// single-stream program replays the exact same fault schedule on
// every run — which is what the retry-determinism tests and the
// chaos CI gate (cmd/hsbench's TestChaosGate) pin. Production builds
// pay nothing when injection is off: the call sites are a single nil
// check.
package fault

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"hstreams/internal/metrics"
)

// Injection sites, used as the "site" label of
// hstreams_faults_injected_total.
const (
	// SiteTransfer is a DMA transfer on a fabric link.
	SiteTransfer = "transfer"
	// SiteSlowLink is a degraded-link latency injection (the
	// operation succeeds, late).
	SiteSlowLink = "slow-link"
	// SiteKernel is a run-function (kernel) launch on a sink.
	SiteKernel = "kernel"
	// SiteSinkDeath is a sink-process death episode: the domain fails
	// every operation until the episode ends.
	SiteSinkDeath = "sink-death"
)

// Error is an injected fault. Every injected fault is transient: the
// operation failed before any bytes moved or any descriptor was sent,
// so the retry machinery may re-attempt it. It records where it was
// injected.
type Error struct {
	// Site is the injection site (SiteTransfer, SiteKernel, ...).
	Site string
	// Key is the decision-sequence key: "src→dst" for link sites, the
	// sink domain name for kernel/death sites.
	Key string
	// Seq is the site-sequence ordinal that produced the fault,
	// making every injected error traceable to one seeded decision.
	Seq uint64
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected transient %s at %s (decision %d)", e.Site, e.Key, e.Seq)
}

// IsTransient reports whether err is retryable: an injected *Error
// anywhere in its chain. All other errors — genuine runtime failures,
// exceeded deadlines — are final.
func IsTransient(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// Plan describes what to inject and how often. All probabilities are
// in [0,1] and independent; the zero value injects nothing.
type Plan struct {
	// Seed makes the fault schedule reproducible; two injectors with
	// the same plan issue identical decision sequences per site.
	Seed uint64
	// ArmAfter delays injection until that many decisions have been
	// consulted injector-wide — a deterministic way to let a warm-up
	// phase (or a known-good prefix of a chaos test) run clean.
	ArmAfter uint64
	// TransferError is the probability that a DMA transfer fails with
	// a transient error before moving any bytes.
	TransferError float64
	// SlowLink is the probability that a DMA transfer is delayed by
	// SlowLatency (degraded link); the transfer itself still succeeds
	// unless an error is also drawn.
	SlowLink float64
	// SlowLatency is the extra wall-clock latency of a slow-link
	// injection. Zero leaves SlowLink draws without effect.
	SlowLatency time.Duration
	// KernelError is the probability that a run-function (kernel)
	// launch on a sink fails with a transient error.
	KernelError float64
	// SinkDeath is the probability, drawn at each kernel launch, that
	// the sink process dies: the domain then fails its next DeadOps
	// operations (kernels and transfers) before recovering — the
	// card-reset burst that trips the scheduler's breaker.
	SinkDeath float64
	// DeadOps is the length of a sink-death episode in failed
	// operations. Zero uses DefaultDeadOps.
	DeadOps int
}

// DefaultDeadOps is the default sink-death episode length.
const DefaultDeadOps = 8

// siteState is one decision sequence (one link direction or one sink
// domain).
type siteState struct {
	seq     uint64 // decisions drawn at this site
	faults  uint64 // faults injected at this site
	deadOps int    // remaining operations of a death episode
	rateGa  *metrics.Gauge
}

// Injector is the deterministic Plan-driven fault injector, safe for
// concurrent use. Decisions are derived from (seed, site key, per-site
// ordinal) with a splitmix64 mix, so the schedule is independent of
// wall-clock time and — for a serial decision sequence — of goroutine
// interleaving. A nil *Injector (the production default) means no
// injection; callers guard their calls with one nil check.
type Injector struct {
	plan Plan

	faults   *metrics.CounterVec // site, key
	linkRate *metrics.GaugeVec   // src, dst (per-mille injected-fault rate)

	mu    sync.Mutex
	total uint64 // injector-wide decisions, for ArmAfter
	sites map[string]*siteState
}

// NewInjector builds a deterministic injector for the plan, reporting
// injection telemetry into reg (hstreams_faults_injected_total by
// site and key, and the per-link hstreams_link_fault_permille
// gauges). A nil registry keeps counting into detached series.
func NewInjector(plan Plan, reg *metrics.Registry) *Injector {
	if plan.DeadOps <= 0 {
		plan.DeadOps = DefaultDeadOps
	}
	return &Injector{
		plan:     plan,
		faults:   reg.CounterVec("hstreams_faults_injected_total", "Faults injected by the fault plan, by site and sequence key.", "site", "key"),
		linkRate: reg.GaugeVec("hstreams_link_fault_permille", "Injected-fault rate per link direction, in permille of consulted transfers.", "src", "dst"),
		sites:    make(map[string]*siteState),
	}
}

// site resolves (or creates) the decision sequence for key; caller
// holds in.mu.
func (in *Injector) site(key string) *siteState {
	st := in.sites[key]
	if st == nil {
		st = &siteState{}
		in.sites[key] = st
	}
	return st
}

// draw advances site st by one decision and returns a uniform value
// in [0,1). Caller holds in.mu.
func (in *Injector) draw(st *siteState, key string) float64 {
	st.seq++
	in.total++
	h := splitmix64(in.plan.Seed ^ hash64(key) ^ (st.seq * 0x9e3779b97f4a7c15))
	return float64(h>>11) / (1 << 53)
}

// armed reports whether the plan has passed its warm-up. Caller holds
// in.mu (total is advanced by draw).
func (in *Injector) armed() bool { return in.total > in.plan.ArmAfter }

// inject records one injected fault at st. Caller holds in.mu.
func (in *Injector) inject(st *siteState, site, key string) *Error {
	st.faults++
	in.faults.With(site, key).Inc()
	return &Error{Site: site, Key: key, Seq: st.seq}
}

// Transfer is consulted before one DMA from domain src to domain dst:
// two independent draws per call (slow link, then error), plus the
// domain death episodes, which fail transfers touching a dead domain.
// It returns extra latency to impose before the transfer proceeds
// and/or an error to fail it with; callers must sleep out the delay
// even when an error is returned (a degraded link is slow to fail,
// too).
func (in *Injector) Transfer(src, dst string) (time.Duration, error) {
	key := src + "→" + dst
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.site(key)

	var delay time.Duration
	if in.draw(st, key) < in.plan.SlowLink && in.armed() {
		delay = in.plan.SlowLatency
		if delay > 0 {
			in.faults.With(SiteSlowLink, key).Inc()
		}
	}
	var err error
	if in.draw(st, key) < in.plan.TransferError && in.armed() {
		err = in.inject(st, SiteTransfer, key)
	}
	if err == nil {
		if dead := in.deadDomain(src, dst); dead != "" {
			err = in.inject(st, SiteSinkDeath, dead)
		}
	}
	st.rateGa = in.gauge(st, src, dst)
	st.rateGa.Set(int64(1000 * st.faults / st.seq))
	return delay, err
}

// gauge resolves the per-link rate gauge once. Caller holds in.mu.
func (in *Injector) gauge(st *siteState, src, dst string) *metrics.Gauge {
	if st.rateGa == nil {
		st.rateGa = in.linkRate.With(src, dst)
	}
	return st.rateGa
}

// deadDomain consumes one death-episode operation if either endpoint
// domain is currently dead, returning the dead domain's name. Caller
// holds in.mu.
func (in *Injector) deadDomain(names ...string) string {
	for _, name := range names {
		if st := in.sites[name]; st != nil && st.deadOps > 0 {
			st.deadOps--
			return name
		}
	}
	return ""
}

// Kernel is consulted before one run-function launch on the named
// sink domain: one death draw and one error draw per call. A non-nil
// error fails the launch.
func (in *Injector) Kernel(domain string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.site(domain)
	if in.draw(st, domain) < in.plan.SinkDeath && in.armed() {
		st.deadOps = in.plan.DeadOps
		in.faults.With(SiteSinkDeath, domain).Inc()
	}
	var err error
	if in.draw(st, domain) < in.plan.KernelError && in.armed() {
		err = in.inject(st, SiteKernel, domain)
	}
	if err == nil {
		if dead := in.deadDomain(domain); dead != "" {
			err = in.inject(st, SiteSinkDeath, dead)
		}
	}
	return err
}

// Decisions returns how many fault decisions the injector has drawn
// in total (every Transfer call draws twice, every Kernel call draws
// twice).
func (in *Injector) Decisions() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.total
}

// splitmix64 is the SplitMix64 finalizer — a full-avalanche mix used
// to turn (seed, site, ordinal) into an independent uniform draw.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash64 is FNV-1a over the site key.
func hash64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
