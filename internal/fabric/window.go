package fabric

import (
	"sync"
	"time"
)

// Window is a registered memory region on a node, the target of DMA
// operations from a remote node — the SCIF registered-window
// equivalent. The backing store is real memory, so DMA reads and
// writes actually move bytes; the returned durations come from the
// link's cost model.
type Window struct {
	node *Node
	mu   sync.RWMutex
	mem  []byte
}

// Register pins a memory region of the given size on node n.
func Register(n *Node, size int) *Window {
	return &Window{node: n, mem: make([]byte, size)}
}

// RegisterBacked pins caller-owned memory; DMA aliases it directly.
func RegisterBacked(n *Node, mem []byte) *Window {
	return &Window{node: n, mem: mem}
}

// Size returns the window's length in bytes.
func (w *Window) Size() int { return len(w.mem) }

// Node returns the node owning the window.
func (w *Window) Node() *Node { return w.node }

// Bytes exposes the backing store for node-local access. Remote
// domains must use DMA instead.
func (w *Window) Bytes() []byte { return w.mem }

// DMAWrite copies src into the window at off, initiated from node
// 'from', and returns the modeled wire time.
func (w *Window) DMAWrite(f *Fabric, from *Node, off int, src []byte) (time.Duration, error) {
	if off < 0 || off+len(src) > len(w.mem) {
		return 0, ErrOutOfRange
	}
	link, err := f.LinkBetween(from, w.node)
	if err != nil {
		return 0, err
	}
	w.mu.Lock()
	copy(w.mem[off:], src)
	w.mu.Unlock()
	return link.Account(from, int64(len(src))), nil
}

// DMARead copies from the window at off into dst, initiated from node
// 'from', and returns the modeled wire time.
func (w *Window) DMARead(f *Fabric, from *Node, off int, dst []byte) (time.Duration, error) {
	if off < 0 || off+len(dst) > len(w.mem) {
		return 0, ErrOutOfRange
	}
	link, err := f.LinkBetween(from, w.node)
	if err != nil {
		return 0, err
	}
	w.mu.RLock()
	copy(dst, w.mem[off:])
	w.mu.RUnlock()
	return link.Account(w.node, int64(len(dst))), nil
}

// LocalCopy moves bytes between two windows on the same node (no wire
// time; used for host-as-target aliasing checks and intra-domain
// moves).
func LocalCopy(dst *Window, dstOff int, src *Window, srcOff, n int) error {
	if srcOff < 0 || srcOff+n > len(src.mem) || dstOff < 0 || dstOff+n > len(dst.mem) {
		return ErrOutOfRange
	}
	src.mu.RLock()
	dst.mu.Lock()
	copy(dst.mem[dstOff:dstOff+n], src.mem[srcOff:srcOff+n])
	dst.mu.Unlock()
	src.mu.RUnlock()
	return nil
}
