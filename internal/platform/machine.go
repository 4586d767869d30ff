package platform

import (
	"fmt"
	"time"
)

// Machine is a node: a host domain plus zero or more non-host
// domains ("cards"), each reached over an interconnect. Local
// coprocessors sit on PCIe; domains on remote nodes are reached over
// the fabric — hStreams presents both uniformly (§IV). This mirrors
// the paper's Fig. 2 testbed (Xeon host + 1–2 KNC cards over PCIe).
type Machine struct {
	Name  string
	Host  *DomainSpec
	Cards []*DomainSpec
	// Link is the default interconnect for all cards.
	Link *LinkSpec
	// CardLinks optionally overrides the link per card (index-aligned
	// with Cards; nil entries fall back to Link). Used for
	// fabric-attached remote domains.
	CardLinks []*LinkSpec
}

// LinkFor returns the interconnect serving card i (0-based).
func (m *Machine) LinkFor(i int) *LinkSpec {
	if i >= 0 && i < len(m.CardLinks) && m.CardLinks[i] != nil {
		return m.CardLinks[i]
	}
	return m.Link
}

// AddRemote attaches a domain on a remote node, reached over the
// given fabric link, and returns the machine for chaining. The remote
// domain is enumerated and used exactly like a local card — the
// uniform interface the paper contrasts with OpenMP's host/device
// split (§IV).
func (m *Machine) AddRemote(spec *DomainSpec, link *LinkSpec) *Machine {
	c := spec.Clone()
	c.Name = fmt.Sprintf("%s-remote%d", spec.Name, len(m.Cards))
	for len(m.CardLinks) < len(m.Cards) {
		m.CardLinks = append(m.CardLinks, nil)
	}
	m.Cards = append(m.Cards, c)
	m.CardLinks = append(m.CardLinks, link)
	return m
}

// Domains enumerates all physical domains, host first — the discovery
// order the hStreams library exposes to users (host is domain 0).
func (m *Machine) Domains() []*DomainSpec {
	ds := make([]*DomainSpec, 0, 1+len(m.Cards))
	ds = append(ds, m.Host)
	ds = append(ds, m.Cards...)
	return ds
}

// PeakGFlops returns the machine-wide peak double-precision rate.
func (m *Machine) PeakGFlops() float64 {
	p := m.Host.PeakGFlops()
	for _, c := range m.Cards {
		p += c.PeakGFlops()
	}
	return p
}

// String summarizes the machine: its name, host, card count and
// aggregate peak.
func (m *Machine) String() string {
	return fmt.Sprintf("%s (host %s + %d cards, %.0f GF/s peak)", m.Name, m.Host.Name, len(m.Cards), m.PeakGFlops())
}

// HSW returns the Haswell host spec: Xeon E5-2697v3, 2 sockets × 14
// cores × 2 threads, 2.6 GHz, AVX2 FMA (16 DP flops/cycle/core).
// Calibrated so large-tile DGEMM lands near the paper's 902 GFlop/s.
func HSW() *DomainSpec {
	return &DomainSpec{
		Name:            "HSW",
		Kind:            HostCPU,
		Sockets:         2,
		CoresPerSocket:  14,
		ThreadsPerCore:  2,
		ClockGHz:        2.6,
		DPFlopsPerCycle: 16,
		MemGB:           64,
		MemBWGBs:        110,
		ParallelEff:     0.93,
		TaskOverhead:    4 * time.Microsecond,
		Eff: map[Kernel]Efficiency{
			KDGEMM:   {Max: 0.88, HalfN: 120},
			KDSYRK:   {Max: 0.85, HalfN: 130},
			KDTRSM:   {Max: 0.80, HalfN: 150},
			KDPOTRF:  {Max: 0.76, HalfN: 4000},
			KDPOTF2:  {Max: 0.25, HalfN: 2000},
			KLDLT:    {Max: 0.55, HalfN: 2500},
			KDGETRF:  {Max: 0.66, HalfN: 3000},
			KStencil: {Max: 0.35, HalfN: 16},
			KMemset:  {Max: 0.05, HalfN: 1},
		},
	}
}

// IVB returns the Ivy Bridge host spec: Xeon E5-2697v2, 2 sockets × 12
// cores × 2 threads, 2.7 GHz, AVX without FMA (8 DP flops/cycle/core).
// Calibrated to the paper's 475 GFlop/s DGEMM.
func IVB() *DomainSpec {
	return &DomainSpec{
		Name:            "IVB",
		Kind:            HostCPU,
		Sockets:         2,
		CoresPerSocket:  12,
		ThreadsPerCore:  2,
		ClockGHz:        2.7,
		DPFlopsPerCycle: 8,
		MemGB:           64,
		MemBWGBs:        95,
		ParallelEff:     0.95,
		TaskOverhead:    4 * time.Microsecond,
		Eff: map[Kernel]Efficiency{
			KDGEMM:   {Max: 0.99, HalfN: 60},
			KDSYRK:   {Max: 0.96, HalfN: 70},
			KDTRSM:   {Max: 0.90, HalfN: 100},
			KDPOTRF:  {Max: 0.86, HalfN: 4000},
			KDPOTF2:  {Max: 0.30, HalfN: 2000},
			KLDLT:    {Max: 0.62, HalfN: 2500},
			KDGETRF:  {Max: 0.72, HalfN: 3000},
			KStencil: {Max: 0.35, HalfN: 16},
			KMemset:  {Max: 0.05, HalfN: 1},
		},
	}
}

// KNC returns the Knights Corner coprocessor spec: Xeon Phi 7120A,
// 61 cores × 4 threads, 1.33 GHz turbo, 512-bit FMA (16 DP
// flops/cycle/core). Calibrated to the paper's 982 GFlop/s DGEMM; the
// unblocked panel kernel (DPOTF2) is deliberately dismal — the reason
// MAGMA ships panels back to the host (§VI).
func KNC() *DomainSpec {
	return &DomainSpec{
		Name:            "KNC",
		Kind:            MIC,
		Sockets:         1,
		CoresPerSocket:  61,
		ThreadsPerCore:  4,
		ClockGHz:        1.33,
		DPFlopsPerCycle: 16,
		MemGB:           16,
		MemBWGBs:        170,
		ParallelEff:     0.90,
		TaskOverhead:    20 * time.Microsecond,
		Eff: map[Kernel]Efficiency{
			KDGEMM:   {Max: 0.90, HalfN: 160},
			KDSYRK:   {Max: 0.88, HalfN: 220},
			KDTRSM:   {Max: 0.72, HalfN: 300},
			KDPOTRF:  {Max: 0.14, HalfN: 5000},
			KDPOTF2:  {Max: 0.02, HalfN: 3000},
			KLDLT:    {Max: 0.48, HalfN: 3000},
			KDGETRF:  {Max: 0.10, HalfN: 6000},
			KStencil: {Max: 0.40, HalfN: 16},
			KMemset:  {Max: 0.08, HalfN: 1},
		},
	}
}

// K40x returns the NVidia K40x spec used for the CUDA Streams
// comparisons: 15 SMX at 875 MHz boost, ~1430 GFlop/s DP peak.
func K40x() *DomainSpec {
	return &DomainSpec{
		Name:            "K40x",
		Kind:            GPU,
		Sockets:         1,
		CoresPerSocket:  15,
		ThreadsPerCore:  256,
		ClockGHz:        0.875,
		DPFlopsPerCycle: 109, // 15 SMX × 0.875 GHz × 109 ≈ 1430 GF/s
		MemGB:           12,
		MemBWGBs:        230,
		ParallelEff:     0.95,
		TaskOverhead:    8 * time.Microsecond,
		Eff: map[Kernel]Efficiency{
			KDGEMM:   {Max: 0.80, HalfN: 400},
			KDSYRK:   {Max: 0.76, HalfN: 450},
			KDTRSM:   {Max: 0.60, HalfN: 600},
			KDPOTRF:  {Max: 0.20, HalfN: 6000},
			KDPOTF2:  {Max: 0.01, HalfN: 3000},
			KLDLT:    {Max: 0.50, HalfN: 3500},
			KDGETRF:  {Max: 0.15, HalfN: 6000},
			KStencil: {Max: 0.12, HalfN: 16},
			KMemset:  {Max: 0.10, HalfN: 1},
		},
	}
}

// Clone returns a deep copy of the spec, so callers can tweak
// efficiencies without aliasing the built-in configurations.
func (d *DomainSpec) Clone() *DomainSpec {
	c := *d
	c.Eff = make(map[Kernel]Efficiency, len(d.Eff))
	for k, v := range d.Eff {
		c.Eff[k] = v
	}
	return &c
}

// NewMachine assembles a machine from a host spec and nCards copies of
// cardSpec connected by link. Card names get a numeric suffix.
func NewMachine(name string, host *DomainSpec, nCards int, cardSpec *DomainSpec, link *LinkSpec) *Machine {
	m := &Machine{Name: name, Host: host.Clone(), Link: link}
	for i := 0; i < nCards; i++ {
		c := cardSpec.Clone()
		c.Name = fmt.Sprintf("%s%d", cardSpec.Name, i)
		m.Cards = append(m.Cards, c)
	}
	return m
}

// HSWPlusKNC returns the paper's Haswell testbed with n KNC cards.
func HSWPlusKNC(n int) *Machine {
	return NewMachine(fmt.Sprintf("HSW+%dKNC", n), HSW(), n, KNC(), PCIe())
}

// IVBPlusKNC returns the paper's Ivy Bridge testbed with n KNC cards.
func IVBPlusKNC(n int) *Machine {
	return NewMachine(fmt.Sprintf("IVB+%dKNC", n), IVB(), n, KNC(), PCIe())
}

// HSWPlusK40 returns a Haswell host with n K40x GPUs, for the CUDA
// Streams comparison experiments.
func HSWPlusK40(n int) *Machine {
	return NewMachine(fmt.Sprintf("HSW+%dK40x", n), HSW(), n, K40x(), PCIe())
}
