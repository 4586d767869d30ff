// Package fabric is the lowest plumbing layer of the stack, modeled
// on SCIF (Symmetric Communications Interface), which abstracted the
// PCIe hardware under COI in the paper's software stack (§III):
//
//	application → hStreams → COI → SCIF → PCIe
//
// It provides nodes (one per physical domain), connected endpoints,
// small control messages, and DMA on registered memory windows. Data
// movement is real (memcpy between the per-domain instances); the
// PCIe timing is accounted through the platform.LinkSpec cost model so
// higher layers can report modeled transfer durations in either
// execution mode.
package fabric

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"hstreams/internal/metrics"
	"hstreams/internal/platform"
)

// Common errors.
var (
	ErrClosed       = errors.New("fabric: endpoint closed")
	ErrOutOfRange   = errors.New("fabric: access outside registered window")
	ErrUnknownNode  = errors.New("fabric: unknown node")
	ErrSelfConnect  = errors.New("fabric: cannot connect a node to itself")
	ErrNotConnected = errors.New("fabric: nodes not connected")
)

// Fabric is the interconnect: a set of nodes and the links between
// them. The zero value is not usable; create one with New.
type Fabric struct {
	mu    sync.Mutex
	nodes []*Node
	links map[[2]int]*Link

	bytesVec *metrics.CounterVec   // src, dst
	xfersVec *metrics.CounterVec   // src, dst
	occVec   *metrics.HistogramVec // src, dst: per-transfer wire time
}

// New returns an empty fabric.
func New() *Fabric {
	return &Fabric{links: make(map[[2]int]*Link)}
}

// SetMetrics attaches per-link traffic counters
// (hstreams_link_bytes_total / hstreams_link_transfers_total, labeled
// src/dst) to the fabric. Existing and future links are instrumented;
// a nil registry detaches nothing visible (counters still count, they
// are just not exported).
func (f *Fabric) SetMetrics(reg *metrics.Registry) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.bytesVec = reg.CounterVec("hstreams_link_bytes_total", "Payload bytes moved per link direction.", "src", "dst")
	f.xfersVec = reg.CounterVec("hstreams_link_transfers_total", "Transfers per link direction.", "src", "dst")
	f.occVec = reg.HistogramVec("hstreams_link_occupancy_seconds", "Per-transfer link busy time by direction; the windowed _sum delta over wall time is link occupancy.", nil, "src", "dst")
	for _, l := range f.links {
		f.instrument(l)
	}
}

// instrument resolves a link's per-direction counters; caller holds
// f.mu.
func (f *Fabric) instrument(l *Link) {
	if f.bytesVec == nil {
		return
	}
	l.mu.Lock()
	l.bytesCtr[0] = f.bytesVec.With(l.a.name, l.b.name)
	l.xfersCtr[0] = f.xfersVec.With(l.a.name, l.b.name)
	l.occHist[0] = f.occVec.With(l.a.name, l.b.name)
	l.bytesCtr[1] = f.bytesVec.With(l.b.name, l.a.name)
	l.xfersCtr[1] = f.xfersVec.With(l.b.name, l.a.name)
	l.occHist[1] = f.occVec.With(l.b.name, l.a.name)
	l.mu.Unlock()
}

// AddNode registers a domain on the fabric and returns its node.
func (f *Fabric) AddNode(name string) *Node {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := &Node{id: len(f.nodes), name: name, fabric: f}
	f.nodes = append(f.nodes, n)
	return n
}

// Nodes returns all registered nodes in id order.
func (f *Fabric) Nodes() []*Node {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*Node(nil), f.nodes...)
}

// Connect creates (or returns) the link between two nodes using spec.
func (f *Fabric) Connect(a, b *Node, spec *platform.LinkSpec) (*Link, error) {
	if a == b {
		return nil, ErrSelfConnect
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	key := linkKey(a.id, b.id)
	if l, ok := f.links[key]; ok {
		return l, nil
	}
	l := &Link{spec: spec, a: a, b: b}
	f.instrument(l)
	f.links[key] = l
	return l, nil
}

// LinkBetween returns the link connecting two nodes.
func (f *Fabric) LinkBetween(a, b *Node) (*Link, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if l, ok := f.links[linkKey(a.id, b.id)]; ok {
		return l, nil
	}
	return nil, ErrNotConnected
}

// LinkStat is one direction of one link in a LinkStats snapshot.
type LinkStat struct {
	Src       string        `json:"src"`
	Dst       string        `json:"dst"`
	Transfers int64         `json:"transfers"`
	Bytes     int64         `json:"bytes"`
	Modeled   time.Duration `json:"modeled"`
}

// LinkStats snapshots traffic accounting for every link direction,
// ordered by (src, dst) name so output is deterministic. The debug
// server includes it in /debug/streams.
func (f *Fabric) LinkStats() []LinkStat {
	f.mu.Lock()
	links := make([]*Link, 0, len(f.links))
	for _, l := range f.links {
		links = append(links, l)
	}
	f.mu.Unlock()
	out := make([]LinkStat, 0, 2*len(links))
	for _, l := range links {
		l.mu.Lock()
		for dir, ends := range [2][2]*Node{{l.a, l.b}, {l.b, l.a}} {
			s := l.stats[dir]
			out = append(out, LinkStat{
				Src:       ends[0].name,
				Dst:       ends[1].name,
				Transfers: s.Transfers,
				Bytes:     s.Bytes,
				Modeled:   s.ModeledTime,
			})
		}
		l.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

func linkKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// Node is a domain's attachment point to the fabric.
type Node struct {
	id     int
	name   string
	fabric *Fabric
}

// ID returns the node's fabric-wide id.
func (n *Node) ID() int { return n.id }

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// String renders the node as "node<id>(<name>)" for diagnostics.
func (n *Node) String() string { return fmt.Sprintf("node%d(%s)", n.id, n.name) }

// Link is a full-duplex connection between two nodes. Transfer
// statistics are kept per direction; direction 0 carries a→b traffic.
type Link struct {
	spec *platform.LinkSpec
	a, b *Node

	mu    sync.Mutex
	stats [2]DirStats
	// Optional registry counters by direction (see Fabric.SetMetrics).
	bytesCtr [2]*metrics.Counter
	xfersCtr [2]*metrics.Counter
	occHist  [2]*metrics.Histogram
}

// DirStats accumulates traffic accounting for one link direction.
type DirStats struct {
	Transfers int64
	Bytes     int64
	// ModeledTime is the total virtual time the cost model assigns to
	// this direction's traffic.
	ModeledTime time.Duration
}

// Spec returns the link's cost-model spec.
func (l *Link) Spec() *platform.LinkSpec { return l.spec }

// Stats returns accumulated statistics for the direction from 'from'.
func (l *Link) Stats(from *Node) DirStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats[l.dir(from)]
}

func (l *Link) dir(from *Node) int {
	if from == l.a {
		return 0
	}
	return 1
}

// account records a transfer of n bytes leaving 'from' and returns
// the modeled wire time.
func (l *Link) account(from *Node, n int64) time.Duration {
	d := l.spec.TransferTime(n)
	dir := l.dir(from)
	l.mu.Lock()
	s := &l.stats[dir]
	s.Transfers++
	s.Bytes += n
	s.ModeledTime += d
	bc, xc, oc := l.bytesCtr[dir], l.xfersCtr[dir], l.occHist[dir]
	l.mu.Unlock()
	if bc != nil {
		bc.Add(n)
		xc.Inc()
		oc.Observe(d)
	}
	return d
}
