// Package hstreams is a Go implementation of hetero Streams
// (hStreams), the heterogeneous streaming library introduced in
// "Heterogeneous Streaming" (Newburn et al., IPDPSW 2016): a FIFO
// streaming, task-queue abstraction for heterogeneous platforms built
// from three abstractions —
//
//   - Domains: sets of computing resources sharing coherent memory
//     (the host CPU, each coprocessor card);
//   - Streams: task queues whose source enqueues compute, data
//     transfer and synchronization actions and whose sink (a domain +
//     core range) executes them — out of order whenever operands
//     permit, while preserving the sequential FIFO semantic;
//   - Buffers: memory in a unified source proxy address space,
//     instantiated per domain.
//
// The original system drove Intel Xeon Phi (KNC) coprocessors over
// PCIe; that hardware is gone, so this implementation runs in two
// modes sharing one runtime: Real mode executes kernels and transfers
// for real on goroutines (with the paper's hStreams→COI→SCIF layering
// as the actual code path), and Sim mode schedules the identical
// action graph on a virtual clock with a calibrated cost model, which
// is how the paper's experiments are reproduced at full scale.
//
// This package is a thin facade over the implementation packages; see
// DESIGN.md for the system inventory.
package hstreams

import (
	"io"
	"time"

	"hstreams/internal/app"
	"hstreams/internal/core"
	"hstreams/internal/fault"
	"hstreams/internal/health"
	"hstreams/internal/metrics"
	"hstreams/internal/platform"
	"hstreams/internal/telemetry"
	"hstreams/internal/trace"
)

// Execution modes.
const (
	// ModeReal executes kernels and transfers for real.
	ModeReal = core.ModeReal
	// ModeSim schedules on a virtual clock using the cost model.
	ModeSim = core.ModeSim
)

// Operand access modes.
const (
	// In marks a read-only operand.
	In = core.In
	// Out marks a write-only operand.
	Out = core.Out
	// InOut marks a read-write operand.
	InOut = core.InOut
)

// Transfer directions.
const (
	// ToSink moves source-instance bytes to the sink instance.
	ToSink = core.ToSink
	// ToSource moves sink-instance bytes back to the source.
	ToSource = core.ToSource
)

// Core types, re-exported.
type (
	// Runtime is an initialized hStreams library instance.
	Runtime = core.Runtime
	// Config configures Init.
	Config = core.Config
	// Mode selects the execution back end.
	Mode = core.Mode
	// Domain is a physical domain (host or card).
	Domain = core.Domain
	// Stream is a task queue bound to a domain's cores.
	Stream = core.Stream
	// Buf is a buffer in the source proxy address space.
	Buf = core.Buf
	// Operand declares a byte range and its access mode.
	Operand = core.Operand
	// Access is an operand access mode.
	Access = core.Access
	// Action is an enqueued unit of work; it doubles as an event.
	Action = core.Action
	// Kernel is a sink-side compute entry point.
	Kernel = core.Kernel
	// KernelCtx carries a kernel invocation's inputs.
	KernelCtx = core.KernelCtx
	// XferDir selects a transfer direction.
	XferDir = core.XferDir
)

// Resilience types (internal/fault + internal/core). A FaultPlan
// drives a deterministic, seedable Injector passed as Config.Faults,
// which every card attempt consults before its transfer or kernel
// launch; RetryPolicy / Config.Deadline / BreakerPolicy configure how
// the scheduler survives the injected (or real) failures. See
// OPERATIONS.md for the operator runbook.
type (
	// FaultPlan describes what a fault injector injects and how often.
	FaultPlan = fault.Plan
	// Injector is the seeded fault injector the runtime's card
	// attempts consult; a nil *Injector disables injection.
	Injector = fault.Injector
	// RetryPolicy bounds re-attempts of transiently failing card
	// actions (exponential backoff + deterministic jitter).
	RetryPolicy = core.RetryPolicy
	// BreakerPolicy configures per-domain quarantine and re-route.
	BreakerPolicy = core.BreakerPolicy
)

// ErrDeadlineExceeded is reported by actions whose attempts did not
// succeed within Config.Deadline.
var ErrDeadlineExceeded = core.ErrDeadlineExceeded

// ErrBufferFreed is reported by Buf.Free on a second free and by
// enqueues whose operands name a freed buffer.
var ErrBufferFreed = core.ErrBufferFreed

// NewFaultInjector builds the deterministic seeded injector for a
// plan, reporting injection telemetry into reg (nil: detached
// counting) — pass it via Config.Faults / AppOptions.Faults.
func NewFaultInjector(plan FaultPlan, reg *MetricsRegistry) *Injector {
	return fault.NewInjector(plan, reg)
}

// IsTransientError reports whether err is retryable: an injected
// fault anywhere in its chain.
func IsTransientError(err error) bool { return fault.IsTransient(err) }

// Telemetry types (internal/metrics). Every Runtime reports live
// counters, gauges and latency histograms into a MetricsRegistry
// (Runtime.Metrics()). Snapshots export as Prometheus text
// (WriteProm). Per-action records are trace spans
// (below); a caller that must act as each action retires installs a
// Stream.SetRetireHook.
type (
	// MetricsRegistry is a concurrency-safe registry of counters,
	// gauges and fixed-bucket histograms.
	MetricsRegistry = metrics.Registry
)

// NewMetricsRegistry returns an empty, private metrics registry for
// Config.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return metrics.New() }

// DefaultMetrics returns the process-wide registry that runtimes
// report into when Config.Metrics is nil.
func DefaultMetrics() *MetricsRegistry { return metrics.Default() }

// Causal-tracing types (internal/trace). Every completed action is
// recorded as a Span — its four phase timestamps plus the dependence
// edges that gated it — into a lock-free FlightRecorder ring
// (Runtime.Flight()); AnalyzeCriticalPath turns one run's spans into a
// CritReport attributing every makespan nanosecond to a category.
type (
	// Span is one completed action with its causal context.
	Span = trace.Span
	// SpanDep is one causal in-edge of a span.
	SpanDep = trace.Dep
	// FlightRecorder is a lock-free ring buffer of completed spans.
	FlightRecorder = trace.FlightRecorder
	// CritReport is the result of critical-path analysis.
	CritReport = trace.CritReport
)

// NewFlightRecorder returns a private flight recorder holding the most
// recent capacity spans (<= 0 uses the default) for Config.Flight.
func NewFlightRecorder(capacity int) *FlightRecorder { return trace.NewFlight(capacity) }

// DefaultFlight returns the process-wide flight recorder that runtimes
// record into when Config.Flight is nil.
func DefaultFlight() *FlightRecorder { return trace.DefaultFlight() }

// AnalyzeCriticalPath extracts the critical path from one run's spans
// (use LatestRunSpans to select them from a shared recorder).
func AnalyzeCriticalPath(spans []Span) *CritReport { return trace.Analyze(spans) }

// Gantt renders one run's spans (Runtime.Spans) as a crude text
// timeline, one row per stream, width columns wide.
func Gantt(spans []Span, width int) string { return trace.Gantt(spans, width) }

// LatestRunSpans filters spans down to the most recent run id present.
func LatestRunSpans(spans []Span) []Span { return trace.LatestRun(spans) }

// Continuous-telemetry types (internal/telemetry). A TelemetrySampler
// periodically snapshots a MetricsRegistry into a TelemetryStore of
// rolling time-series rings; BuildTimeline derives the bounded
// windowed view (rates, latency quantiles with exemplars, per-domain
// utilization attribution, queue watermarks, link occupancy) that the
// /debug/timeline endpoint serves and `hsbench -timeline` prints.
type (
	// TelemetryStore is a rolling-window time-series store.
	TelemetryStore = telemetry.Store
	// TelemetrySampler periodically snapshots a registry into a store.
	TelemetrySampler = telemetry.Sampler
	// TelemetrySamplerOptions configures NewTelemetrySampler.
	TelemetrySamplerOptions = telemetry.SamplerOptions
	// Timeline is the derived windowed view of a store.
	Timeline = telemetry.Timeline
)

// NewTelemetryStore returns a private rolling store retaining the
// given window at the given number of ring slots (non-positive: the
// package defaults, one minute at 250ms resolution).
func NewTelemetryStore(window time.Duration, slots int) *TelemetryStore {
	return telemetry.NewStore(window, slots)
}

// NewTelemetrySampler builds a sampler over opt's registry (nil: the
// process-wide one) and store (nil: a store of its own). Call Start to
// begin sampling and Stop to halt; Stop takes a final sample so short
// runs are still visible.
func NewTelemetrySampler(opt TelemetrySamplerOptions) *TelemetrySampler {
	return telemetry.NewSampler(opt)
}

// BuildTimeline derives the windowed view from a store (non-positive
// window: the store's full window). reg supplies histogram exemplars;
// pass the registry the sampler snapshots, or nil to skip exemplars.
func BuildTimeline(st *TelemetryStore, reg *MetricsRegistry, window time.Duration) *Timeline {
	return telemetry.Build(st, reg, window)
}

// Health-engine types (internal/health). A HealthEngine interprets
// the observability signals into a machine-readable verdict: an SLO
// rule engine over the telemetry store, a stall watchdog over stream
// progress counters, and a lock-free journal of runtime lifecycle
// events with monotonic sequence numbers correlated to flight-recorder
// span ids. The /debug/health and /debug/events endpoints serve it;
// `hsbench -health` prints it.
type (
	// HealthEngine evaluates rules and the watchdog on every Tick.
	HealthEngine = health.Engine
	// HealthOptions configures NewHealthEngine.
	HealthOptions = health.Options
	// HealthRule is one declarative SLO rule.
	HealthRule = health.Rule
	// HealthVerdict is one rule's evaluation result.
	HealthVerdict = health.Verdict
	// HealthReport is the engine's combined verdict.
	HealthReport = health.Report
	// HealthSeverity is a verdict level (HealthOK/Warn/Critical).
	HealthSeverity = health.Severity
	// HealthStall is one stream the watchdog considers stalled.
	HealthStall = health.Stall
	// HealthEvent is one structured journal entry.
	HealthEvent = health.Event
	// HealthEventJournal is the lock-free ring of lifecycle events.
	HealthEventJournal = health.Journal
	// RuntimeEvent is a lifecycle event emitted by a runtime's
	// resilience paths to its Config.OnEvent hook (AppOptions.OnEvent
	// through the app layer), typically a journal's CoreEvent method.
	RuntimeEvent = core.RuntimeEvent
)

// Health verdict levels.
const (
	// HealthOK means within SLO.
	HealthOK = health.SevOK
	// HealthWarn means degraded but serving.
	HealthWarn = health.SevWarn
	// HealthCritical means the SLO is violated; readiness fails.
	HealthCritical = health.SevCritical
)

// NewHealthEngine builds a health engine (zero Options builds its own
// store and journal over the process-wide registry and live runtimes;
// HealthEngine.Store is the store to hand its sampler). Hang engine.Tick off a telemetry sampler
// (TelemetrySamplerOptions.OnSample) to evaluate on the sampling
// cadence.
func NewHealthEngine(opt HealthOptions) *HealthEngine { return health.New(opt) }

// DefaultHealthRules returns the shipped SLO rule pack — the rules the
// OPERATIONS.md alert tables document.
func DefaultHealthRules() []HealthRule { return health.DefaultRules() }

// NewEventJournal builds a private lifecycle-event journal holding the
// last capacity events (<= 0 uses the default), counting into reg
// (nil: detached counting).
func NewEventJournal(capacity int, reg *MetricsRegistry) *HealthEventJournal {
	return health.NewJournal(capacity, reg)
}

// Checkpoint/replay types (internal/core). A Checkpoint serializes a
// completed run's action DAG — streams, actions, dependence edges,
// payload sizes, costs, and the machine — to a versioned JSON file;
// Replay re-executes it in Sim mode and asserts the reconstructed DAG
// is edge-for-edge identical, making any run a deterministic,
// shareable reproducer.
type (
	// Checkpoint is a serialized run DAG (version CheckpointVersion).
	Checkpoint = core.Checkpoint
	// CheckpointAction is one serialized action with its dep edges.
	CheckpointAction = core.CkptAction
	// CheckpointStream is one serialized stream binding.
	CheckpointStream = core.CkptStream
	// ReplayResult reports a replayed run's DAG size, makespan and
	// critical-path analysis.
	ReplayResult = core.ReplayResult
)

// CheckpointVersion is the checkpoint format version this build
// writes and the only version DecodeCheckpoint accepts.
const CheckpointVersion = core.CheckpointVersion

// Checkpoint/replay errors, re-exported for errors.Is tests.
var (
	// ErrCheckpointVersion reports a version-field mismatch.
	ErrCheckpointVersion = core.ErrCheckpointVersion
	// ErrCheckpointInvalid reports a structurally broken checkpoint,
	// or spans no runtime recorded.
	ErrCheckpointInvalid = core.ErrCheckpointInvalid
	// ErrCheckpointEvicted reports a run the flight recorder no longer
	// holds whole: the ring overwrote some of its spans.
	ErrCheckpointEvicted = core.ErrCheckpointEvicted
	// ErrReplayDiverged reports a replayed DAG that differs from the
	// checkpoint's recorded edges.
	ErrReplayDiverged = core.ErrReplayDiverged
)

// CheckpointRun serializes the given run's spans from a flight
// recorder (use LatestRunSpans' run selection via Runtime.Checkpoint
// for the common case).
func CheckpointRun(fr *FlightRecorder, run uint64) (*Checkpoint, error) {
	return core.CheckpointRun(fr, run)
}

// DecodeCheckpoint reads and validates a checkpoint written by
// Checkpoint.Encode.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) { return core.DecodeCheckpoint(r) }

// App-API types (the convenience layer, hStreams' "app API").
type (
	// App wraps a runtime with per-domain stream sets.
	App = app.App
	// AppOptions configures AppInit.
	AppOptions = app.Options
)

// Machine descriptions (Fig. 2 of the paper).
type (
	// Machine is a host plus cards platform description.
	Machine = platform.Machine
	// DomainSpec describes one physical domain.
	DomainSpec = platform.DomainSpec
	// Cost describes a compute task for the Sim-mode duration model.
	Cost = platform.Cost
)

// Init brings up the library on a machine (hStreams_Init +
// enumeration).
func Init(cfg Config) (*Runtime, error) { return core.Init(cfg) }

// AppInit brings up the runtime and evenly divides domains into
// streams (hStreams_app_init).
func AppInit(opt AppOptions) (*App, error) { return app.Init(opt) }

// Built-in machine configurations from the paper's testbed.
var (
	// HSWPlusKNC builds a Haswell host with n KNC cards.
	HSWPlusKNC = platform.HSWPlusKNC
	// IVBPlusKNC builds an Ivy Bridge host with n KNC cards.
	IVBPlusKNC = platform.IVBPlusKNC
	// HSWPlusK40 builds a Haswell host with n K40x GPUs.
	HSWPlusK40 = platform.HSWPlusK40
)
