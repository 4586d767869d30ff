// Package app is the hStreams "app API": the thin convenience layer
// the paper contrasts with the "core API" (§II, §IV). It initializes
// the library, evenly divides each domain's cores among a requested
// number of streams, and provides round-robin stream selection — the
// idiom the paper's Cholesky uses ("each subsequent compute … is
// round-robin'd across the available streams on that computing
// domain", §V).
package app

import (
	"errors"
	"fmt"
	"time"

	"hstreams/internal/core"
	"hstreams/internal/fault"
	"hstreams/internal/metrics"
	"hstreams/internal/platform"
	"hstreams/internal/trace"
)

// ErrNoStreams is returned when a domain was configured with zero
// streams but work is routed to it.
var ErrNoStreams = errors.New("app: domain has no streams")

// Options configures Init.
type Options struct {
	// Machine is the platform to run on. Required.
	Machine *platform.Machine
	// Mode selects real or simulated execution.
	Mode core.Mode
	// StreamsPerCard is the number of streams each card is divided
	// into (hStreams_app_init's streams-per-domain). Default 1.
	StreamsPerCard int
	// HostStreams is the number of host-as-target streams. Zero
	// means the host is not used as a compute target.
	HostStreams int
	// HostCores caps how many host cores the host streams share
	// (leaving the rest for the source thread). Zero means all.
	HostCores int
	// Metrics receives the runtime's telemetry; nil uses the
	// process-wide metrics.Default() registry, hsbench's one view of
	// every figure runtime (see core.Config.Metrics).
	Metrics *metrics.Registry
	// Flight receives completed-action causal spans; nil uses the
	// process-wide trace.DefaultFlight() recorder, from which hsbench
	// cuts -critpath, -trace and -checkpoint (see core.Config.Flight).
	Flight *trace.FlightRecorder
	// DisableCausalTrace turns span capture off entirely (see
	// core.Config.DisableCausalTrace).
	DisableCausalTrace bool
	// Faults is the fault injector the runtime's card attempts consult
	// (see core.Config.Faults). Real mode only; nil disables injection.
	Faults *fault.Injector
	// Retry bounds re-attempts of transiently failing card actions
	// (see core.Config.Retry).
	Retry core.RetryPolicy
	// Deadline bounds one action's total time across attempts (see
	// core.Config.Deadline).
	Deadline time.Duration
	// Breaker configures per-domain quarantine (see
	// core.Config.Breaker).
	Breaker core.BreakerPolicy
	// OnEvent receives runtime lifecycle events (see
	// core.Config.OnEvent); nil drops them.
	OnEvent func(core.RuntimeEvent)
}

// App wraps a runtime with per-domain stream sets.
type App struct {
	RT *core.Runtime

	streams [][]*core.Stream // by domain index
	rr      []int            // round-robin cursor by domain index
}

// Init brings up the runtime and carves out the requested streams,
// dividing each domain's cores evenly (hStreams_app_init).
func Init(opt Options) (*App, error) {
	if opt.StreamsPerCard == 0 {
		opt.StreamsPerCard = 1
	}
	rt, err := core.Init(core.Config{
		Machine:            opt.Machine,
		Mode:               opt.Mode,
		Metrics:            opt.Metrics,
		Flight:             opt.Flight,
		DisableCausalTrace: opt.DisableCausalTrace,
		Faults:             opt.Faults,
		Retry:              opt.Retry,
		Deadline:           opt.Deadline,
		Breaker:            opt.Breaker,
		OnEvent:            opt.OnEvent,
	})
	if err != nil {
		return nil, err
	}
	a := &App{RT: rt}
	a.streams = make([][]*core.Stream, 1+rt.NumCards())
	a.rr = make([]int, 1+rt.NumCards())

	hostCores := rt.Host().Spec().Cores()
	if opt.HostCores > 0 && opt.HostCores < hostCores {
		hostCores = opt.HostCores
	}
	if opt.HostStreams > 0 {
		ss, err := a.carve(rt.Host(), hostCores, opt.HostStreams)
		if err != nil {
			rt.Fini()
			return nil, err
		}
		a.streams[0] = ss
	}
	for c := 0; c < rt.NumCards(); c++ {
		d := rt.Card(c)
		ss, err := a.carve(d, d.Spec().Cores(), opt.StreamsPerCard)
		if err != nil {
			rt.Fini()
			return nil, err
		}
		a.streams[d.Index()] = ss
	}
	return a, nil
}

// carve splits the first nCores cores of d into n contiguous streams
// of near-equal width.
func (a *App) carve(d *core.Domain, nCores, n int) ([]*core.Stream, error) {
	if n < 1 || n > nCores {
		return nil, fmt.Errorf("app: cannot carve %d streams from %d cores of %s", n, nCores, d.Spec().Name)
	}
	out := make([]*core.Stream, 0, n)
	base := nCores / n
	extra := nCores % n
	first := 0
	for i := 0; i < n; i++ {
		w := base
		if i < extra {
			w++
		}
		s, err := a.RT.StreamCreate(d, first, w)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		first += w
	}
	return out, nil
}

// Fini synchronizes and shuts the runtime down.
func (a *App) Fini() { a.RT.Fini() }

// HostStreams returns the host-as-target streams (may be empty).
func (a *App) HostStreams() []*core.Stream { return a.streams[0] }

// CardStreams returns card c's streams.
func (a *App) CardStreams(c int) []*core.Stream {
	return a.streams[a.RT.Card(c).Index()]
}

// AllStreams returns every stream, host first.
func (a *App) AllStreams() []*core.Stream {
	var out []*core.Stream
	for _, ss := range a.streams {
		out = append(out, ss...)
	}
	return out
}

// NextStream round-robins across domain d's streams.
func (a *App) NextStream(d *core.Domain) (*core.Stream, error) {
	ss := a.streams[d.Index()]
	if len(ss) == 0 {
		return nil, ErrNoStreams
	}
	s := ss[a.rr[d.Index()]%len(ss)]
	a.rr[d.Index()]++
	return s, nil
}

// ComputeDomains lists the domains that have at least one stream —
// the targets work can be distributed over.
func (a *App) ComputeDomains() []*core.Domain {
	var out []*core.Domain
	for _, d := range a.RT.Domains() {
		if len(a.streams[d.Index()]) > 0 {
			out = append(out, d)
		}
	}
	return out
}
