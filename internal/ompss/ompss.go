// Package ompss models the OmpSs task-dataflow programming model
// ported on top of hStreams, as described in the paper (§IV "OmpSs on
// top of hStreams"):
//
//   - Data management: data is allocated automatically on devices and
//     moved implicitly as scheduled tasks need it; the runtime tracks
//     accesses for correctness.
//   - Resource management: streams and events are created and managed
//     transparently.
//   - Execution flow: tasks are submitted with declared in/out
//     operands, dependences are detected dynamically, work is
//     distributed over several streams per device, and everything is
//     issued asynchronously.
//
// Two back ends reproduce the paper's backend comparison: on hStreams
// (internal/core), in-stream dependences ride on the FIFO-semantic
// operand analysis for free; on CUDA Streams (internal/cudasim),
// OmpSs must create, record and wait events to enforce every
// cross-stream dependence explicitly, and strict FIFO queues forfeit
// in-stream overlap — the combination behind the paper's 1.45×
// hStreams advantage for a tiled matmul.
//
// The conveniences cost overhead: every Submit charges TaskOverhead
// of source-thread time for dynamic task instantiation and
// scheduling, reproducing the 15–50 % OmpSs-over-hStreams overhead at
// mid problem sizes (§III). The CUDA back end supports Sim mode only.
package ompss

import (
	"errors"
	"fmt"
	"time"

	"hstreams/internal/apistat"
	"hstreams/internal/core"
	"hstreams/internal/cudasim"
	"hstreams/internal/platform"
)

// Backend selects the offload layer under the OmpSs runtime.
type Backend int

const (
	// BackendHStreams runs over internal/core.
	BackendHStreams Backend = iota
	// BackendCUDA runs over internal/cudasim (Sim mode only).
	BackendCUDA
)

// Common errors.
var (
	ErrCUDARealMode = errors.New("ompss: CUDA backend supports Sim mode only")
	ErrBadAccess    = errors.New("ompss: task must declare at least one operand")
	ErrFinished     = errors.New("ompss: runtime finished")
)

// DefaultTaskOverhead is the modeled per-task instantiation and
// dynamic-scheduling cost on the source thread. Calibrated so tiled
// Cholesky at n = 4800–10000 shows the paper's 15–50 % overhead over
// plain hStreams and converges for large n.
const DefaultTaskOverhead = 55 * time.Microsecond

// DefaultDispatchLatency is the modeled delay between a task becoming
// ready and the dynamic scheduler actually launching it: Nanos++
// worker polling and queue management, plus the sink-side buffer
// allocation the OmpSs configuration paid on every task because it
// did not enable COI's 2 MB buffer pool (§III: "When they were not
// enabled, as in the OmpSs case, the COI allocation overheads were
// significant"). It rides the critical path of dependence chains,
// which is why fully dynamic task instantiation hurts small
// granularities (§VI) — calibrated to the paper's 15–50 % overhead
// band for Cholesky at n = 4800–10000, converging at large n.
const DefaultDispatchLatency = 500 * time.Microsecond

// Access declares a task operand's direction.
type Access int

const (
	// In is read-only.
	In Access = iota
	// Out is write-only.
	Out
	// InOut is read-write.
	InOut
)

// Config configures Init.
type Config struct {
	Machine *platform.Machine
	Mode    core.Mode
	Backend Backend
	// StreamsPerDevice is how many streams the runtime manages per
	// device (default 4, the OmpSs prefetch/overlap configuration).
	StreamsPerDevice int
	// TaskOverhead overrides DefaultTaskOverhead when positive.
	TaskOverhead time.Duration
	// DispatchLatency overrides DefaultDispatchLatency when positive.
	DispatchLatency time.Duration
}

// Runtime is an OmpSs runtime instance.
type Runtime struct {
	cfg Config
	API apistat.Counter

	hs        *core.Runtime
	hsStreams [][]*core.Stream

	cu        *cudasim.CUDA
	cuStreams [][]*cudasim.Stream

	overhead time.Duration
	dispatch time.Duration
	rr       []int
	devRR    int
	regions  []*Region
	done     bool
}

// Init brings up the runtime and its transparently managed streams.
func Init(cfg Config) (*Runtime, error) {
	if cfg.StreamsPerDevice <= 0 {
		cfg.StreamsPerDevice = 4
	}
	r := &Runtime{cfg: cfg, overhead: cfg.TaskOverhead, dispatch: cfg.DispatchLatency}
	if r.overhead <= 0 {
		r.overhead = DefaultTaskOverhead
	}
	if r.dispatch <= 0 {
		r.dispatch = DefaultDispatchLatency
	}
	switch cfg.Backend {
	case BackendHStreams:
		rt, err := core.Init(core.Config{Machine: cfg.Machine, Mode: cfg.Mode})
		if err != nil {
			return nil, err
		}
		r.hs = rt
		for c := 0; c < rt.NumCards(); c++ {
			d := rt.Card(c)
			per := d.Spec().Cores() / cfg.StreamsPerDevice
			if per < 1 {
				per = 1
			}
			var ss []*core.Stream
			for i := 0; i < cfg.StreamsPerDevice; i++ {
				first := i * per
				if first+per > d.Spec().Cores() {
					first = d.Spec().Cores() - per
				}
				s, err := rt.StreamCreate(d, first, per)
				if err != nil {
					rt.Fini()
					return nil, err
				}
				ss = append(ss, s)
			}
			r.hsStreams = append(r.hsStreams, ss)
		}
		r.rr = make([]int, rt.NumCards())
	case BackendCUDA:
		if cfg.Mode != core.ModeSim {
			return nil, ErrCUDARealMode
		}
		cu, err := cudasim.Init(cfg.Machine, cfg.Mode)
		if err != nil {
			return nil, err
		}
		r.cu = cu
		for dev := 0; dev < cu.DeviceCount(); dev++ {
			var ss []*cudasim.Stream
			for i := 0; i < cfg.StreamsPerDevice; i++ {
				s, err := cu.StreamCreate(dev)
				if err != nil {
					cu.Fini()
					return nil, err
				}
				ss = append(ss, s)
			}
			r.cuStreams = append(r.cuStreams, ss)
		}
		r.rr = make([]int, cu.DeviceCount())
	default:
		return nil, fmt.Errorf("ompss: unknown backend %d", cfg.Backend)
	}
	return r, nil
}

// Fini drains and shuts down.
func (r *Runtime) Fini() {
	if r.done {
		return
	}
	r.done = true
	if r.hs != nil {
		r.hs.Fini()
	}
	if r.cu != nil {
		r.cu.Fini()
	}
}

// Core exposes the underlying hStreams runtime (nil for CUDA backend);
// used by tests and the coding-table harness.
func (r *Runtime) Core() *core.Runtime {
	if r.hs != nil {
		return r.hs
	}
	return r.cu.RT
}

// Devices returns the number of compute devices.
func (r *Runtime) Devices() int { return len(r.rr) }

// taskRef identifies a completed-or-pending task for dependence
// tracking.
type taskRef struct {
	act    *core.Action
	dev    int // -1 = host/none
	stream int
}

// Region is runtime-managed data: the user never allocates device
// instances or issues transfers; the runtime tracks which device
// holds the freshest copy and moves data as tasks require.
type Region struct {
	r    *Runtime
	id   int
	size int64

	// hStreams backing (one proxy buffer stands for all instances).
	buf *core.Buf
	// CUDA backing: one pointer per device address space, allocated
	// lazily — the bookkeeping hStreams' proxy addresses avoid.
	ptrs []*cudasim.DevPtr

	// freshOn is the device holding the freshest copy (-1 = host).
	freshOn int
	// validOn marks devices whose copy matches the freshest.
	validOn map[int]bool
	// stagedBy records the transfer that populated each device's
	// copy, so consumers in other streams can depend on it.
	stagedBy map[int]taskRef

	lastWriter   taskRef
	readersSince []taskRef
}

// CreateData registers a region of the given size (OmpSs: data
// allocated automatically on the device when needed).
func (r *Runtime) CreateData(size int64) (*Region, error) {
	r.API.Hit("ompss_register_data")
	reg := &Region{r: r, id: len(r.regions), size: size, freshOn: -1, validOn: map[int]bool{}, stagedBy: map[int]taskRef{}}
	if r.hs != nil {
		b, err := r.hs.Alloc1D(fmt.Sprintf("ompss.r%d", reg.id), size)
		if err != nil {
			return nil, err
		}
		reg.buf = b
	} else {
		reg.ptrs = make([]*cudasim.DevPtr, r.cu.DeviceCount())
	}
	r.regions = append(r.regions, reg)
	return reg, nil
}

// Buf exposes the hStreams buffer backing the region (nil on CUDA).
func (reg *Region) Buf() *core.Buf { return reg.buf }

// Size returns the region size in bytes.
func (reg *Region) Size() int64 { return reg.size }

// Arg is one declared task operand.
type Arg struct {
	R   *Region
	Acc Access
}

// Task is a submitted task; it completes asynchronously.
type Task struct {
	Act *core.Action
	Dev int
}

// Wait blocks until the task completes.
func (t *Task) Wait() error { return t.Act.Wait() }
