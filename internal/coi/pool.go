package coi

import "sync"

// DefaultPoolChunk is the pool granularity. The paper notes COI
// allocation overheads become negligible when a pool of 2 MB buffers
// is used (§III) — 2 MB is the huge-page size the real COI pinned.
const DefaultPoolChunk = 2 << 20

// BufferPool recycles sink-side allocations in chunk-size classes so
// repeated buffer creation avoids cold allocation (pinning) costs.
type BufferPool struct {
	chunk int

	mu     sync.Mutex
	free   map[int][][]byte // size class (in chunks) → free blocks
	hits   int64
	misses int64
}

// NewBufferPool returns a pool with the given chunk granularity.
func NewBufferPool(chunk int) *BufferPool {
	if chunk <= 0 {
		chunk = DefaultPoolChunk
	}
	return &BufferPool{chunk: chunk, free: make(map[int][][]byte)}
}

// class returns the size class (number of chunks) covering size.
func (p *BufferPool) class(size int) int {
	if size <= 0 {
		return 1
	}
	return (size + p.chunk - 1) / p.chunk
}

// Get returns a block of at least size bytes and whether it was a
// fresh (cold) allocation. Only mem[:size] is guaranteed zero: the
// rest of a reused block may hold an earlier user's bytes, so callers
// expose mem[:size:size] and nothing past it.
func (p *BufferPool) Get(size int) (mem []byte, fresh bool) {
	cl := p.class(size)
	p.mu.Lock()
	if blocks := p.free[cl]; len(blocks) > 0 {
		mem = blocks[len(blocks)-1]
		p.free[cl] = blocks[:len(blocks)-1]
		p.hits++
		p.mu.Unlock()
		clear(mem[:max(size, 0)]) // reuse must not leak previous contents
		return mem, false
	}
	p.misses++
	p.mu.Unlock()
	return make([]byte, cl*p.chunk), true
}

// Put returns a block obtained from Get to the pool.
func (p *BufferPool) Put(mem []byte) {
	cl := len(mem) / p.chunk
	if cl == 0 || len(mem)%p.chunk != 0 {
		return // not a pool block; drop it
	}
	p.mu.Lock()
	p.free[cl] = append(p.free[cl], mem)
	p.mu.Unlock()
}

// Stats reports pool reuse counts.
func (p *BufferPool) Stats() (hits, misses int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses
}
