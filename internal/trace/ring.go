package trace

import "sync/atomic"

// Ring is the bounded lock-free ring the flight recorder and the
// health journal run on. A writer takes the next sequence number with
// one atomic add and publishes with one atomic swap of its slot; a
// reader walks the retained numbers in order. Neither ever waits. An
// entry keeps its own (1-based) number, in the field seq names, and is
// not written once published. A nil ring holds nothing.
type Ring[E any] struct {
	mask  uint64
	pos   atomic.Uint64 // entries ever published: the newest sequence number
	floor atomic.Uint64 // reads skip sequence numbers up to it (Reset)
	slots []atomic.Pointer[E]
	seq   func(*E) *uint64
}

// NewRing returns a ring holding the most recent capacity entries
// (rounded up to a power of two; capacity <= 0 uses def).
func NewRing[E any](capacity, def int, seq func(*E) *uint64) *Ring[E] {
	n := 1
	for n < capacity || capacity <= 0 && n < def {
		n <<= 1
	}
	return &Ring[E]{mask: uint64(n - 1), slots: make([]atomic.Pointer[E], n), seq: seq}
}

// Publish stamps e with the next sequence number, makes it the newest
// entry and returns that number (0 on a nil ring). A writer lapped
// before it stores drops e, so the newer entry stays.
func (r *Ring[E]) Publish(e *E) uint64 {
	if r == nil {
		return 0
	}
	s := r.pos.Add(1)
	*r.seq(e) = s
	slot := &r.slots[(s-1)&r.mask]
	old := slot.Swap(e)
	// A later lap can have stored here only once the counter is a whole
	// lap past s, so the common case never reads old. If one did, put
	// it back, unless a still later one has replaced e meanwhile.
	if old != nil && r.pos.Load()-s > r.mask && *r.seq(old) > s {
		slot.CompareAndSwap(e, old)
	}
	return s
}

// bounds returns the sequence numbers a read visits, (lo, hi].
func (r *Ring[E]) bounds() (lo, hi uint64) {
	// floor before pos: Reset stores a position it read, so the floor
	// loaded first is never past the position counter loaded after it.
	lo, hi = r.floor.Load(), r.pos.Load()
	return max(lo, hi-min(hi, uint64(len(r.slots)))), hi
}

// Each calls fn with the retained entries, oldest first. Entries
// published or reset meanwhile may or may not be visited.
func (r *Ring[E]) Each(fn func(*E)) {
	if r == nil {
		return
	}
	lo, hi := r.bounds()
	for s := lo + 1; s <= hi; s++ {
		// Skip a slot still holding an older lap's entry (its writer
		// has not stored yet) or already a newer one.
		if e := r.slots[(s-1)&r.mask].Load(); e != nil && *r.seq(e) == s {
			fn(e)
		}
	}
}

// Collect returns what Each visits, each entry copied into a T by
// conv (nil on a nil ring).
func Collect[E, T any](r *Ring[E], conv func(*T, *E)) []T {
	if r == nil {
		return nil
	}
	lo, hi := r.bounds()
	out := make([]T, 0, hi-lo)
	r.Each(func(e *E) {
		out = append(out, *new(T))
		conv(&out[len(out)-1], e)
	})
	return out
}

// Cap returns the ring capacity.
func (r *Ring[E]) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Total returns how many entries were ever published.
func (r *Ring[E]) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.pos.Load()
}

// Dropped returns how many entries the ring has overwritten.
func (r *Ring[E]) Dropped() uint64 {
	return r.Total() - min(r.Total(), uint64(r.Cap()))
}

// Reset discards all retained entries; Total keeps rising, so Dropped
// stays meaningful.
func (r *Ring[E]) Reset() {
	if r != nil {
		r.floor.Store(r.pos.Load())
	}
}
