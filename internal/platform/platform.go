// Package platform describes the simulated heterogeneous machines the
// runtime executes on, and supplies the cost model used in simulated
// (virtual-time) execution.
//
// The built-in machine configurations reproduce Fig. 2 of the paper:
// Intel Xeon E5-2697v2 (Ivy Bridge) and E5-2697v3 (Haswell) hosts, the
// Intel Xeon Phi 7120A (Knights Corner, "KNC") coprocessor, and the
// NVidia K40x. The real hardware is long gone, so the cost model
// stands in for it: per-domain peak rates, per-kernel efficiencies
// with a size ramp, a memory-bandwidth roofline, and a PCIe link model
// with small-transfer overheads. Calibration targets are the achieved
// rates the paper reports (DGEMM: HSW 902, IVB 475, KNC 982 GFlop/s).
package platform

import (
	"fmt"
	"time"
)

// DomainKind classifies a computing domain.
type DomainKind int

const (
	// HostCPU is a multicore Xeon-class host processor.
	HostCPU DomainKind = iota
	// MIC is a manycore coprocessor card (Knights family).
	MIC
	// GPU is a discrete GPU card (used only for CUDA-comparison
	// experiments).
	GPU
)

// String labels the kind: "host", "mic" or "gpu".
func (k DomainKind) String() string {
	switch k {
	case HostCPU:
		return "host"
	case MIC:
		return "mic"
	case GPU:
		return "gpu"
	default:
		return fmt.Sprintf("DomainKind(%d)", int(k))
	}
}

// DomainSpec describes one physical domain: a set of computing and
// storage resources that share coherent memory (paper §II).
type DomainSpec struct {
	Name           string
	Kind           DomainKind
	Sockets        int
	CoresPerSocket int
	ThreadsPerCore int
	ClockGHz       float64
	// DPFlopsPerCycle is the double-precision flops one core retires
	// per cycle at peak (SIMD width × FMA factor).
	DPFlopsPerCycle float64
	MemGB           float64
	// MemBWGBs is the achievable memory bandwidth, the roofline's
	// horizontal asymptote.
	MemBWGBs float64
	// ParallelEff is the multi-core scaling efficiency when ALL of
	// the domain's cores work on one task (synchronization,
	// shared-cache and bandwidth interference). Narrower core sets
	// scale better; see ParEffAt.
	ParallelEff float64
	// TaskOverhead is charged once per compute task (OpenMP fork/join
	// and invocation cost at the sink).
	TaskOverhead time.Duration
	// Eff maps kernels to their large-size efficiency relative to
	// peak; see CostModel.
	Eff map[Kernel]Efficiency
}

// Cores returns the total core count of the domain.
func (d *DomainSpec) Cores() int { return d.Sockets * d.CoresPerSocket }

// Threads returns the total hardware thread count of the domain.
func (d *DomainSpec) Threads() int { return d.Cores() * d.ThreadsPerCore }

// PeakGFlops returns the domain-wide peak double-precision rate.
func (d *DomainSpec) PeakGFlops() float64 {
	return float64(d.Cores()) * d.ClockGHz * d.DPFlopsPerCycle
}

// PeakPerCoreGFlops returns one core's peak double-precision rate.
func (d *DomainSpec) PeakPerCoreGFlops() float64 {
	return d.ClockGHz * d.DPFlopsPerCycle
}

// Efficiency is a saturating efficiency curve: a kernel running at
// characteristic size n achieves Max·n/(n+HalfN) of peak. HalfN is the
// size at which half of Max is reached; latency-bound kernels (panel
// factorizations) have large HalfN, streaming kernels small ones.
type Efficiency struct {
	Max   float64
	HalfN int
}

// At evaluates the curve at characteristic size n.
func (e Efficiency) At(n int) float64 {
	if n <= 0 {
		return 0
	}
	return e.Max * float64(n) / float64(n+e.HalfN)
}

// Kernel identifies a compute-kernel class for the cost model.
type Kernel int

const (
	// KDGEMM is general matrix-matrix multiply.
	KDGEMM Kernel = iota
	// KDSYRK is a symmetric rank-k update.
	KDSYRK
	// KDTRSM is a triangular solve with multiple right-hand sides.
	KDTRSM
	// KDPOTRF is a blocked Cholesky panel/diagonal factorization.
	KDPOTRF
	// KDPOTF2 is the unblocked, latency-bound Cholesky kernel.
	KDPOTF2
	// KLDLT is a dense supernode LDLᵀ factorization (Abaqus-style
	// symmetric indefinite solver kernel).
	KLDLT
	// KDGETRF is a blocked LU factorization with partial pivoting.
	KDGETRF
	// KStencil is a finite-difference stencil sweep (RTM).
	KStencil
	// KMemset is sink-side memory initialization.
	KMemset
	numKernels
)

var kernelNames = [...]string{"DGEMM", "DSYRK", "DTRSM", "DPOTRF", "DPOTF2", "LDLT", "DGETRF", "STENCIL", "MEMSET"}

// String returns the kernel class's BLAS/LAPACK-style name, such as
// "DGEMM".
func (k Kernel) String() string {
	if k < 0 || int(k) >= len(kernelNames) {
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
	return kernelNames[k]
}

// Kernels lists all kernel classes known to the cost model.
func Kernels() []Kernel {
	ks := make([]Kernel, numKernels)
	for i := range ks {
		ks[i] = Kernel(i)
	}
	return ks
}

// Cost describes one compute task for the model.
type Cost struct {
	Kernel Kernel
	// Flops is the double-precision operation count.
	Flops float64
	// Bytes is the memory traffic (reads+writes) the task generates;
	// used for the bandwidth roofline. Zero disables the roofline.
	Bytes float64
	// N is the characteristic size (for tiled BLAS, the tile edge)
	// that drives the efficiency ramp.
	N int
	// Extra is additional fixed latency charged to the task — layered
	// runtimes use it for their dispatch/scheduling delays.
	Extra time.Duration
}

// ComputeTime returns the modeled duration of cost on nCores cores of
// domain d. It is a roofline: the greater of compute-limited and
// bandwidth-limited time, plus the per-task overhead. nCores is
// clamped to [1, d.Cores()].
func ComputeTime(d *DomainSpec, nCores int, c Cost) time.Duration {
	if nCores < 1 {
		nCores = 1
	}
	if max := d.Cores(); nCores > max {
		nCores = max
	}
	eff, ok := d.Eff[c.Kernel]
	if !ok {
		eff = Efficiency{Max: 0.5, HalfN: 256}
	}
	// The size ramp is really about work per core: a task of size N
	// on a subset of cores gives each core more work, so it sits
	// higher on the efficiency curve than the same task spread over
	// the whole domain. HalfN is calibrated at full width.
	scaledN := c.N * d.Cores() / nCores
	rate := d.PeakPerCoreGFlops() * float64(nCores) * d.ParEffAt(nCores) * eff.At(scaledN) // GFlop/s
	if rate <= 0 {
		rate = 1e-3
	}
	sec := c.Flops / (rate * 1e9)
	if c.Bytes > 0 && d.MemBWGBs > 0 {
		// The task cannot share the whole domain's bandwidth if it
		// only owns part of the cores.
		bw := d.MemBWGBs * float64(nCores) / float64(d.Cores())
		if bwSec := c.Bytes / (bw * 1e9); bwSec > sec {
			sec = bwSec
		}
	}
	return time.Duration(sec*float64(time.Second)) + d.TaskOverhead + c.Extra
}

// ParEffAt returns the parallel efficiency of a task running on n of
// the domain's cores: an Amdahl-style serial-fraction curve
// calibrated so efficiency equals ParallelEff at full core count and
// approaches 1 for a single core. This is why a domain partitioned
// into a few narrower streams can slightly out-throughput one
// domain-wide task — one of the effects stream subdivision exploits.
func (d *DomainSpec) ParEffAt(n int) float64 {
	if n <= 1 {
		return 1
	}
	cores := d.Cores()
	if cores <= 1 || d.ParallelEff >= 1 {
		return d.ParallelEff
	}
	sigma := (1/d.ParallelEff - 1) / float64(cores-1)
	return 1 / (1 + sigma*float64(n-1))
}

// GFlops converts an operation count and duration to a rate.
func GFlops(flops float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return flops / d.Seconds() / 1e9
}
