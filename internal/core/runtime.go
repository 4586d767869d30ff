// Package core implements the hStreams library: a FIFO streaming,
// task-queue abstraction for heterogeneous platforms (paper §II).
//
// The three building blocks are:
//
//   - Domains: sets of computing resources sharing coherent memory
//     (the host, each coprocessor card). See Runtime.Domains.
//   - Streams: task queues with a source endpoint (the enqueuing
//     host thread) and a sink endpoint (a domain plus a core range).
//     Compute, transfer and synchronization actions are enqueued into
//     streams. Actions may execute and complete out of order as long
//     as the sequential FIFO semantic is preserved: two actions in a
//     stream are ordered only when their memory operands overlap with
//     at least one writer, or when a synchronization action separates
//     them. This is the semantic difference from CUDA Streams, whose
//     queues are strictly FIFO.
//   - Buffers: memory in a unified source proxy address space,
//     instantiated per domain; operand addresses are translated from
//     proxy space to the sink instance of the stream's domain.
//
// Two execution modes share the same dependence semantics:
//
//   - ModeReal executes kernels and transfers for real, with the
//     layering of the paper (hStreams → COI → fabric) as the actual
//     code path to card domains.
//   - ModeSim schedules the identical action graph on a virtual clock
//     with durations from the platform cost model, which is how the
//     paper-scale experiments are reproduced.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hstreams/internal/coi"
	"hstreams/internal/fabric"
	"hstreams/internal/fault"
	"hstreams/internal/metrics"
	"hstreams/internal/platform"
	"hstreams/internal/trace"
)

// Common errors.
var (
	ErrFinalized     = errors.New("core: runtime finalized")
	ErrBadOperand    = errors.New("core: operand outside buffer")
	ErrBadStream     = errors.New("core: invalid stream configuration")
	ErrNoKernel      = errors.New("core: kernel not registered")
	ErrSimNoData     = errors.New("core: buffers have no backing data in Sim mode")
	ErrWrongRuntime  = errors.New("core: object belongs to a different runtime")
	ErrEmptyMachine  = errors.New("core: machine must have a host domain")
	ErrBadBufferSize = errors.New("core: buffer size must be positive")
	ErrBufferFreed   = errors.New("core: buffer freed")
)

// Mode selects the execution back end.
type Mode int

const (
	// ModeReal runs kernels and transfers for real.
	ModeReal Mode = iota
	// ModeSim schedules on a virtual clock using the cost model.
	ModeSim
)

// Config configures Init.
type Config struct {
	// Machine is the platform to run on. Required.
	Machine *platform.Machine
	// Mode selects real or simulated execution.
	Mode Mode
	// DisableBufferPool turns off COI's 2 MB sink buffer pool,
	// reproducing the allocation overheads the paper observed in the
	// OmpSs configuration (Real mode only).
	DisableBufferPool bool
	// AsyncAlloc is the Sim model's switch between the paper's
	// synchronous sink-side allocation and the asynchronous allocation
	// §VII announces as its fix. The paper's overhead analysis found
	// synchronous MIC-side allocation to be a bottleneck. With it off
	// (the paper's state), every Sim Alloc1D charges the source thread
	// the sink allocation cost per card; with it on, none. Real mode
	// ignores it: there Alloc1D always creates card instances off the
	// source thread.
	AsyncAlloc bool
	// Metrics receives the runtime's live telemetry. Nil uses the
	// process-wide metrics.Default() registry, which exists for
	// hsbench: its figures build their runtimes deep inside the
	// workload packages, and -metrics, -timeline and -health read one
	// view of all of them. A process with its own runtimes (hsserve,
	// bench, tests that assert on counts) passes its own registry.
	Metrics *metrics.Registry
	// Flight receives completed-action causal spans — the four phase
	// timestamps (enqueue → ready → launch → finish) plus the causal
	// in-edges that gated each action — into a lock-free ring buffer
	// readable while the runtime works (trace.FlightRecorder). Nil
	// uses the process-wide trace.DefaultFlight(), for the same
	// reason as Metrics: hsbench's -critpath, -trace and -checkpoint
	// read the latest figure run from it. The run's checkpoint
	// geometry travels with its spans, in whichever recorder.
	Flight *trace.FlightRecorder
	// DisableCausalTrace turns span capture off entirely: no
	// dependence recording, no ring writes. This is the ablation the
	// trace-overhead benchmark guard measures; leave it off in
	// production — the recorder is designed to stay on.
	DisableCausalTrace bool
	// Faults, when non-nil, is consulted by every card attempt
	// before its DMA or run-function launch, and by the quarantine
	// flush before each read back (exec_real.go, resilience.go);
	// fault.NewInjector builds it from a seeded plan. Real mode only —
	// Sim's virtual clock has no plumbing to fail. Nil (the default)
	// disables injection at the cost of one nil check.
	Faults *fault.Injector
	// Retry bounds re-attempts of transiently failing card actions
	// (resilience.go). The zero value disables retries.
	Retry RetryPolicy
	// Deadline bounds one action's total time across attempts; checked
	// at attempt boundaries (a DMA cannot be aborted midflight). Zero
	// disables deadlines. Real mode only.
	Deadline time.Duration
	// Breaker configures per-domain quarantine: after
	// Breaker.Threshold consecutive transient failures a domain is
	// quarantined and its work re-routed to the host (resilience.go).
	// The zero value disables the breaker.
	Breaker BreakerPolicy
	// OnEvent, when non-nil, receives runtime lifecycle events
	// (breaker trips, quarantine flushes, retries-exhausted, deadline
	// hits — see RuntimeEvent) synchronously on the goroutine where
	// the transition happened; it must be safe for concurrent calls.
	// Nil drops events. Only failure paths emit, so the fault-free hot
	// path never pays for the hook.
	OnEvent func(RuntimeEvent)
}

// Kernel is a sink-side compute entry point. Operand slices arrive in
// the order they were passed to EnqueueCompute, resolved against the
// executing domain's buffer instances.
type Kernel func(ctx *KernelCtx)

// KernelCtx carries a kernel invocation's inputs.
type KernelCtx struct {
	// Args are the scalar arguments from EnqueueCompute.
	Args []int64
	// Ops are the operand byte ranges, one per Operand.
	Ops [][]byte
	// Threads is the number of hardware threads granted to this
	// invocation (the stream's width); kernels that parallelize
	// internally should size themselves to it.
	Threads int
}

// Runtime is an initialized hStreams library instance.
type Runtime struct {
	cfg     Config
	machine *platform.Machine
	domains []*Domain
	flight  *trace.FlightRecorder // nil when causal tracing is off
	geom    *runGeometry          // nil when causal tracing is off
	runID   uint64
	reg     *metrics.Registry
	mets    *coreMetrics

	// mu is the small registry lock: stream/buffer enumeration, kernel
	// registration, and first-error state. The per-action hot path
	// never takes it — scheduling state lives behind per-stream locks
	// (Stream.mu) and the atomics below. Proxy-range allocation has
	// its own lock inside the AddrSpace.
	mu sync.Mutex
	// streams holds the live streams. A published slice is never
	// edited — readers iterate it after unlocking — so Destroy
	// publishes a new one. nStreams counts every stream ever created
	// and numbers the next.
	streams  []*Stream
	nStreams int
	bufs     []*Buf
	firstErr error

	// proxy allocates (and recycles) source proxy address ranges —
	// the seed bump counter never reclaimed them, so a long-running
	// server leaked address space on every Alloc1D/Free cycle.
	proxy *fabric.AddrSpace

	nextID    atomic.Uint64
	finalized atomic.Bool

	// ktab is the copy-on-write kernel table: registration (rare)
	// clones under mu, lookup (every Real-mode compute enqueue) is a
	// lock-free load.
	ktab atomic.Pointer[kernelTable]

	exec executor

	// The fabric, in both modes: nodes[i] and links[i] are domain i's
	// (links[0] is nil). procs[i] is card i's COI process, Real mode
	// only.
	fab   *fabric.Fabric
	nodes []*fabric.Node
	links []*fabric.Link
	procs []*coi.Process
}

// executor is the back end contract shared by real and simulated
// execution. launch is called exactly once per action, after its
// dependences resolve; the executor must eventually call
// Runtime.finish. waitAction blocks the host until the action is done
// (pumping the virtual clock in Sim mode).
type executor interface {
	launch(a *Action)
	waitAction(a *Action)
	now() time.Duration
	fini()
}

// Init brings up the library on the given machine, enumerating its
// domains, building the fabric that accounts their links and (in Real
// mode) starting a COI process on every card.
func Init(cfg Config) (*Runtime, error) {
	if cfg.Machine == nil || cfg.Machine.Host == nil {
		return nil, ErrEmptyMachine
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default()
	}
	rt := &Runtime{
		cfg:     cfg,
		machine: cfg.Machine,
		runID:   nextRunID.Add(1),
		reg:     reg,
		proxy:   fabric.NewAddrSpace(proxyAlign),
	}
	rt.ktab.Store(&kernelTable{ids: make(map[string]int64)})
	if !cfg.DisableCausalTrace {
		rt.flight = cfg.Flight
		if rt.flight == nil {
			rt.flight = trace.DefaultFlight()
		}
		rt.geom = &runGeometry{machine: cfg.Machine, mode: cfg.Mode}
	}
	rt.mets = newCoreMetrics(reg)
	for i, spec := range cfg.Machine.Domains() {
		rt.domains = append(rt.domains, &Domain{rt: rt, index: i, spec: spec})
	}
	rt.initFabric()
	switch cfg.Mode {
	case ModeSim:
		rt.exec = newSimExec(rt)
	case ModeReal:
		if err := rt.startProcesses(); err != nil {
			return nil, err
		}
		rt.exec = newRealExec(rt)
	default:
		return nil, fmt.Errorf("core: unknown mode %d", cfg.Mode)
	}
	registerLive(rt)
	return rt, nil
}

// initFabric builds the fabric, one node per domain and a link from
// the host to each card, whose ledger (Runtime.LinkStats and the
// hstreams_link_* families) counts card transfers in both modes: Real
// mode moves the bytes over it, Sim mode charges the modeled ones.
func (rt *Runtime) initFabric() {
	rt.fab = fabric.New()
	rt.fab.SetMetrics(rt.reg)
	rt.nodes = make([]*fabric.Node, len(rt.domains))
	rt.links = make([]*fabric.Link, len(rt.domains))
	for i, d := range rt.domains {
		rt.nodes[i] = rt.fab.AddNode(d.spec.Name)
		if i > 0 {
			// Connect fails only for a node linked to itself.
			rt.links[i], _ = rt.fab.Connect(rt.nodes[0], rt.nodes[i], rt.machine.LinkFor(i-1))
		}
	}
}

// startProcesses starts one COI process per card (Real mode).
func (rt *Runtime) startProcesses() error {
	rt.procs = make([]*coi.Process, len(rt.domains))
	for i := 1; i < len(rt.domains); i++ {
		p, err := coi.CreateProcess(rt.fab, rt.nodes[0], rt.nodes[i], coi.Options{
			PoolBuffers: !rt.cfg.DisableBufferPool,
			Metrics:     rt.reg,
		})
		if err != nil {
			return err
		}
		p.RegisterFunction(trampolineName, rt.trampoline)
		rt.procs[i] = p
	}
	return nil
}

// Fini synchronizes all outstanding work, reclaims every still-live
// buffer (so hstreams_buffers_live returns to its pre-Init baseline —
// the leak check serving smoke tests assert on), takes the streams
// not yet destroyed off hstreams_domain_streams (so it, too, returns
// to its baseline), and shuts the library down.
func (rt *Runtime) Fini() {
	rt.ThreadSynchronize()
	// Finalizing under rt.mu settles, for each stream, whether Fini or
	// its Destroy takes it off hstreams_domain_streams: a stream still
	// in the table now is Fini's.
	rt.mu.Lock()
	if rt.finalized.Swap(true) {
		rt.mu.Unlock()
		return
	}
	procs := rt.procs
	bufs := append([]*Buf(nil), rt.bufs...)
	streams := rt.streams
	rt.mu.Unlock()
	for _, s := range streams {
		rt.mets.domainStreams.With(s.domain.spec.Name).Add(-1)
	}
	// All work is drained, so every remaining buffer has zero live
	// references and reclaims immediately; card instances must go
	// before their COI processes do.
	for _, b := range bufs {
		b.Free()
	}
	unregisterLive(rt)
	rt.exec.fini()
	for _, p := range procs {
		if p != nil {
			p.Destroy()
		}
	}
}

// Machine returns the platform the runtime was initialized on.
func (rt *Runtime) Machine() *platform.Machine { return rt.machine }

// Mode returns the execution mode.
func (rt *Runtime) Mode() Mode { return rt.cfg.Mode }

// String labels the execution mode for logs and benchmarks.
func (m Mode) String() string {
	switch m {
	case ModeReal:
		return "real"
	case ModeSim:
		return "sim"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Flight returns the flight recorder this runtime records causal
// spans into — the one supplied via Config.Flight, or the
// process-wide trace.DefaultFlight(). Nil when Config.DisableCausalTrace
// turned capture off. It stays readable after Fini.
func (rt *Runtime) Flight() *trace.FlightRecorder { return rt.flight }

// RunID returns this runtime instance's process-unique id — the value
// spans carry in trace.Span.Run, letting analysis separate schedules
// when many runtimes share one flight recorder.
func (rt *Runtime) RunID() uint64 { return rt.runID }

// nextRunID numbers runtime instances process-wide, so the runs that
// share one recorder (hsbench's figures on trace.DefaultFlight) have
// distinct span run ids.
var nextRunID atomic.Uint64

// Now returns the current time on the executor's clock — wall time
// since Init in Real mode, virtual time in Sim mode.
func (rt *Runtime) Now() time.Duration { return rt.exec.now() }

// Err returns the first error any action produced.
func (rt *Runtime) Err() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.firstErr
}

// Domain is a physical domain enumerated by the runtime. Domain 0 is
// always the host.
type Domain struct {
	rt    *Runtime
	index int
	spec  *platform.DomainSpec
}

// Index returns the domain's position in discovery order.
func (d *Domain) Index() int { return d.index }

// Spec returns the domain's hardware description.
func (d *Domain) Spec() *platform.DomainSpec { return d.spec }

// IsHost reports whether this is the host domain.
func (d *Domain) IsHost() bool { return d.index == 0 }

// String renders the domain as "domain<index>(<name>)" for diagnostics.
func (d *Domain) String() string { return fmt.Sprintf("domain%d(%s)", d.index, d.spec.Name) }

// Domains enumerates all physical domains, host first.
func (rt *Runtime) Domains() []*Domain { return append([]*Domain(nil), rt.domains...) }

// Host returns the host domain.
func (rt *Runtime) Host() *Domain { return rt.domains[0] }

// NumCards returns the number of non-host domains.
func (rt *Runtime) NumCards() int { return len(rt.domains) - 1 }

// Card returns the i-th card domain (0-based).
func (rt *Runtime) Card(i int) *Domain { return rt.domains[i+1] }

// kernelTable is the immutable kernel registry snapshot; lookups load
// it atomically, registration replaces it wholesale.
type kernelTable struct {
	ids  map[string]int64
	list []Kernel
}

// RegisterKernel makes fn invocable by name from compute actions in
// any domain (the name plays the role of the sink-side symbol that
// hStreams looks up). Registering an existing name replaces it, also
// for enqueued actions that have not run yet: an action looks its
// kernel up when it runs, on the host as on a card.
func (rt *Runtime) RegisterKernel(name string, fn Kernel) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	old := rt.ktab.Load()
	next := &kernelTable{
		ids:  make(map[string]int64, len(old.ids)+1),
		list: append([]Kernel(nil), old.list...),
	}
	for k, v := range old.ids {
		next.ids[k] = v
	}
	if id, ok := next.ids[name]; ok {
		next.list[id] = fn
	} else {
		next.ids[name] = int64(len(next.list))
		next.list = append(next.list, fn)
	}
	rt.ktab.Store(next)
}

// Kernels returns the names of every registered kernel, sorted — the
// capability set a serving front end advertises and negotiates
// against.
func (rt *Runtime) Kernels() []string {
	t := rt.ktab.Load()
	names := make([]string, 0, len(t.ids))
	for name := range t.ids {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (rt *Runtime) kernelID(name string) (int64, bool) {
	id, ok := rt.ktab.Load().ids[name]
	return id, ok
}

func (rt *Runtime) kernelByID(id int64) Kernel {
	t := rt.ktab.Load()
	if id < 0 || id >= int64(len(t.list)) {
		return nil
	}
	return t.list[id]
}

// ThreadSynchronize blocks the host until every enqueued action in
// every stream has completed (hStreams_ThreadSynchronize).
func (rt *Runtime) ThreadSynchronize() {
	for {
		rt.mu.Lock()
		streams := rt.streams
		rt.mu.Unlock()
		var pending *Action
		for _, s := range streams {
			s.mu.Lock()
			if len(s.inflight) > 0 {
				pending = s.inflight[0]
			}
			s.mu.Unlock()
			if pending != nil {
				break
			}
		}
		if pending == nil {
			return
		}
		rt.exec.waitAction(pending)
	}
}

// EventWait blocks the host until the given events complete — all of
// them when all is true, at least one otherwise
// (hStreams_EventWait).
func (rt *Runtime) EventWait(evs []*Action, all bool) {
	if len(evs) == 0 {
		return
	}
	if all {
		for _, ev := range evs {
			rt.exec.waitAction(ev)
		}
		return
	}
	// Wait for any. In Sim mode the executor pumps the clock; in
	// Real mode we wait on a merged channel.
	if rt.cfg.Mode == ModeSim {
		se := rt.exec.(*simExec)
		se.eng.RunUntil(func() bool {
			for _, ev := range evs {
				if ev.Completed() {
					return true
				}
			}
			return false
		})
		return
	}
	// done releases the waiter goroutines on return so waiters on
	// never-completing events cannot outlive the call.
	done := make(chan struct{})
	defer close(done)
	any := make(chan struct{})
	var once sync.Once
	for _, ev := range evs {
		go func(ch <-chan struct{}) {
			select {
			case <-ch:
				once.Do(func() { close(any) })
			case <-done:
			}
		}(ev.Done())
	}
	<-any
}

// ChargeSource accounts d of work on the source (host) thread in Sim
// mode — layers above hStreams (e.g. a task-dataflow runtime doing
// dynamic dependence analysis and scheduling) use it to model their
// own per-task costs, which is how the paper's OmpSs overhead
// (15–50 % at mid sizes, §III) is reproduced. No-op in Real mode.
func (rt *Runtime) ChargeSource(d time.Duration) {
	if rt.cfg.Mode != ModeSim || d <= 0 {
		return
	}
	se := rt.exec.(*simExec)
	se.mu.Lock()
	se.hostTime += d
	se.mu.Unlock()
}

// setErr records the first action error, which Err reports. Later
// errors never displace it — a cascade usually roots in the first
// failure — but they are not silently dropped either: each one counts
// in hstreams_errors_suppressed_total (every error, first included,
// already counts in hstreams_action_errors_total).
func (rt *Runtime) setErr(err error) {
	if err == nil {
		return
	}
	rt.mu.Lock()
	if rt.firstErr == nil {
		rt.firstErr = err
		rt.mu.Unlock()
		return
	}
	rt.mu.Unlock()
	rt.mets.errSuppressed.Inc()
}
