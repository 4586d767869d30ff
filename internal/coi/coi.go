// Package coi is the Co-processor Offload Infrastructure layer of the
// stack, modeled on Intel COI, the plumbing hStreams is built on in
// the paper (§III):
//
//	application → hStreams → COI → SCIF (internal/fabric) → PCIe
//
// It provides sink-side processes, FIFO pipelines of run-functions,
// registered buffers with host↔sink movement over fabric DMA, and
// completion events. Control traffic really travels over fabric
// endpoints, so the layering the paper describes is an actual code
// path, not a diagram. Each pipeline owns two endpoint pairs, each
// used one way: RunFunction sends a numbered descriptor on the first,
// the pipeline's executor runs the descriptors in that order and
// answers each on the second, and Event.Wait reads the answers back
// in the same order. An end that is only sent from never makes an
// inbox.
//
// Each control message is one fixed binary record: the op byte ('r'
// run-function or 'c' completion), the event's place in its pipeline
// as a uvarint, the function name and the error text each prefixed by
// its uvarint length, then the scalar args as a uvarint count followed
// by zigzag varints and the buffer ids as a uvarint count followed by
// uvarints. Both ends live in one binary, so there is no type
// descriptor and no version to negotiate; decode rejects empty,
// truncated, oversized and trailing-byte input.
//
// The buffer pool reproduces the paper's allocation observation: COI
// overheads were negligible when a pool of 2 MB buffers was used, and
// significant when it was not (as in the OmpSs configuration).
package coi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hstreams/internal/fabric"
	"hstreams/internal/metrics"
)

// Common errors.
var (
	ErrUnknownFunction = errors.New("coi: run-function not registered")
	ErrUnknownBuffer   = errors.New("coi: unknown buffer id")
	ErrProcessDown     = errors.New("coi: process destroyed")
	ErrPipelineDown    = errors.New("coi: pipeline destroyed")
	ErrBadRange        = errors.New("coi: access outside buffer")
)

// RunFunc is a sink-side entry point. Buffers arrive as slices of the
// sink instances, in the order they were passed to RunFunction. The
// args and bufs slices are the pipeline's and valid only for the
// call; a RunFunc must not keep them.
type RunFunc func(args []int64, bufs [][]byte)

// msg is one control message; see the package doc for its wire form.
type msg struct {
	Op     byte // 'r' run-function, 'c' completion
	Fn     string
	Args   []int64
	BufIDs []uint64
	Event  uint64
	Err    string
}

// errBadMsg is what decode returns for any input encode cannot produce.
var errBadMsg = errors.New("coi: malformed control message")

// encode appends m's wire form to dst and returns the extended slice.
// The per-message callers pass a stack array's [:0], which is safe
// because Endpoint.Send copies the payload.
func encode(dst []byte, m msg) []byte {
	dst = append(dst, m.Op)
	dst = binary.AppendUvarint(dst, m.Event)
	dst = binary.AppendUvarint(dst, uint64(len(m.Fn)))
	dst = append(dst, m.Fn...)
	dst = binary.AppendUvarint(dst, uint64(len(m.Err)))
	dst = append(dst, m.Err...)
	dst = binary.AppendUvarint(dst, uint64(len(m.Args)))
	for _, a := range m.Args {
		dst = binary.AppendVarint(dst, a)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.BufIDs)))
	for _, id := range m.BufIDs {
		dst = binary.AppendUvarint(dst, id)
	}
	return dst
}

// decode parses one wire record into m, reusing the backing arrays of
// m's Args and BufIDs and any equal string, so a reader that decodes
// into one msg allocates nothing per record once they have grown.
// Every read is bounds-checked, and every length or count is checked
// against the bytes that remain (each element takes at least one)
// before anything is appended. A zero count leaves a zero-length
// slice, nil if m's was nil. On error m holds no valid message.
func decode(b []byte, m *msg) error {
	if len(b) == 0 || b[0] != 'r' && b[0] != 'c' {
		return errBadMsg
	}
	m.Op = b[0]
	r := wireReader{b: b[1:]}
	m.Event = r.uvarint()
	r.str(&m.Fn)
	r.str(&m.Err)
	m.Args = m.Args[:0]
	for n := r.count(); n > 0; n-- {
		m.Args = append(m.Args, r.varint())
	}
	m.BufIDs = m.BufIDs[:0]
	for n := r.count(); n > 0; n-- {
		m.BufIDs = append(m.BufIDs, r.uvarint())
	}
	if r.bad || len(r.b) != 0 {
		return errBadMsg
	}
	return nil
}

// wireReader consumes a record front to back. The first failure sets
// bad and empties b, so every later read returns zero without
// touching memory.
type wireReader struct {
	b   []byte
	bad bool
}

func (r *wireReader) fail() {
	r.bad, r.b = true, nil
}

func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads a length or element count no larger than the bytes left.
func (r *wireReader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail()
		return 0
	}
	return int(n)
}

// str reads a length-prefixed string into *s. It keeps *s when that
// already holds the bytes, so a reused msg copies no repeated name.
func (r *wireReader) str(s *string) {
	n := r.count()
	if b := r.b[:n]; string(b) != *s {
		*s = string(b)
	}
	r.b = r.b[n:]
}

// Event names one run-function invocation by its pipeline and its
// place in the pipeline's order. RunFunction returns it by value; the
// zero Event names nothing.
type Event struct {
	pl  *Pipeline
	seq uint64
}

// Wait blocks until the invocation finished and returns its error. It
// reads the pipeline's answers in order up to its own and keeps the
// errors of the others for their Waits, so an error is returned once:
// a second Wait on the same Event returns nil. After Pipeline.Destroy
// every answer is there, and Wait does not block.
func (e Event) Wait() error {
	pl := e.pl
	pl.readMu.Lock()
	defer pl.readMu.Unlock()
	for pl.read.Load() < e.seq {
		if !pl.next() {
			return ErrPipelineDown
		}
	}
	err := pl.errs[e.seq]
	delete(pl.errs, e.seq)
	return err
}

// Process is the host-side handle to a sink engine running on a card
// domain. It owns the registered functions, the sink buffer instances,
// and the sink pipelines.
type Process struct {
	fab    *fabric.Fabric
	source *fabric.Node
	sink   *fabric.Node
	pool   *BufferPool

	// Telemetry, labeled by sink node (see Options.Metrics).
	poolHits   *metrics.Counter
	poolMisses *metrics.Counter

	mu        sync.Mutex
	funcs     map[string]RunFunc
	buffers   map[uint64]*Buffer
	pipelines map[uint64]*Pipeline
	nextID    uint64
	down      bool // set first by Destroy; no pipeline is made after it
}

// Options configures process creation.
type Options struct {
	// PoolBuffers enables the 2 MB sink buffer pool. Disabling it
	// reproduces the allocation overheads the paper saw with OmpSs.
	PoolBuffers bool
	// Metrics receives COI telemetry (buffer-pool hits and misses),
	// labeled by sink node. Nil
	// keeps counting into detached series that are never exported.
	Metrics *metrics.Registry
}

// CreateProcess starts a sink engine on the sink node and returns the
// host-side handle. The two nodes must be connected on the fabric.
func CreateProcess(f *fabric.Fabric, source, sink *fabric.Node, opt Options) (*Process, error) {
	if _, err := f.LinkBetween(source, sink); err != nil {
		return nil, err
	}
	p := &Process{
		fab:       f,
		source:    source,
		sink:      sink,
		funcs:     make(map[string]RunFunc),
		buffers:   make(map[uint64]*Buffer),
		pipelines: make(map[uint64]*Pipeline),
	}
	if opt.PoolBuffers {
		p.pool = NewBufferPool(DefaultPoolChunk)
	}
	p.poolHits = opt.Metrics.CounterVec("hstreams_coi_pool_hits_total", "Sink buffer allocations satisfied from the 2 MB pool.", "sink").With(sink.Name())
	p.poolMisses = opt.Metrics.CounterVec("hstreams_coi_pool_misses_total", "Sink buffer allocations that paid a cold (pinning) allocation.", "sink").With(sink.Name())
	return p, nil
}

// id allocates a process-unique id. Caller must hold p.mu or be the
// only writer.
func (p *Process) id() uint64 {
	p.nextID++
	return p.nextID
}

// RegisterFunction makes fn invocable by name from pipelines. It
// mirrors COI's sink-side symbol lookup.
func (p *Process) RegisterFunction(name string, fn RunFunc) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.funcs[name] = fn
}

// Sink returns the sink node of the process.
func (p *Process) Sink() *fabric.Node { return p.sink }

// Destroy shuts the process down, letting the sink drain first: when
// it returns, no run-function is executing and every pipeline is
// destroyed, so no Event's Wait blocks. A call during another returns
// once the pipelines the first is destroying are gone.
func (p *Process) Destroy() {
	p.mu.Lock()
	p.down = true
	pls := make([]*Pipeline, 0, len(p.pipelines))
	for _, pl := range p.pipelines {
		pls = append(pls, pl)
	}
	p.mu.Unlock()
	for _, pl := range pls {
		pl.shut(ErrProcessDown)
	}
}

// Pipeline is a FIFO queue of run-function invocations executing on
// the sink — COI's ordering guarantee that hStreams builds streams on.
// Descriptors travel from src to sink and answers from back to ans,
// so the n-th descriptor sent gets the n-th answer.
type Pipeline struct {
	p                    *Process
	id                   uint64
	src, sink, ans, back *fabric.Endpoint
	// sendMu orders descriptors and guards sent, their count, and
	// down, what RunFunction returns once Destroy has begun.
	sendMu sync.Mutex
	sent   uint64
	down   error
	// readMu orders answers and guards errs, the errors of answers
	// read but not yet returned, and reply; read counts the answers.
	readMu  sync.Mutex
	read    atomic.Uint64
	errs    map[uint64]error
	reply   msg
	exited  chan struct{} // closed when run returns
	destroy sync.Once
}

// CreatePipeline creates a sink pipeline with its own endpoints and
// executor.
func (p *Process) CreatePipeline() (*Pipeline, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down {
		return nil, ErrProcessDown
	}
	src, sink, err := fabric.ConnectPair(p.fab, p.source, p.sink)
	if err != nil {
		return nil, err
	}
	ans, back, _ := fabric.ConnectPair(p.fab, p.source, p.sink) // the same link
	pl := &Pipeline{p: p, id: p.id(), src: src, sink: sink, ans: ans, back: back,
		errs: make(map[uint64]error), exited: make(chan struct{})}
	p.pipelines[pl.id] = pl
	go pl.run()
	return pl, nil
}

// Destroy tears the pipeline down (COIPipelineDestroy): it stops
// accepting run-functions, lets the sink run the ones already
// submitted, and returns once the executor has answered them and
// exited and the pipeline has left its process. Destroy is
// idempotent, and safe during or after Process.Destroy.
func (pl *Pipeline) Destroy() { pl.shut(ErrPipelineDown) }

// shut is Destroy; later RunFunction calls return down.
func (pl *Pipeline) shut(down error) {
	pl.destroy.Do(func() {
		pl.sendMu.Lock()
		pl.down = down
		pl.sendMu.Unlock()
		// The executor drains what was sent before Recv reports the
		// close; the answers stay readable from the closed ans.
		pl.sink.Close()
		<-pl.exited
		pl.ans.Close()
		pl.p.mu.Lock()
		delete(pl.p.pipelines, pl.id)
		pl.p.mu.Unlock()
	})
}

// run executes descriptors in FIFO order on the sink and answers each,
// a malformed one with an error. It decodes into one msg and gathers
// operands into one slice, both reused: it runs one at a time.
func (pl *Pipeline) run() {
	defer close(pl.exited)
	var (
		m    msg
		bufs [][]byte
		wire [64]byte
	)
	for {
		raw, err := pl.sink.Recv()
		if err != nil {
			return
		}
		reply := msg{Op: 'c', Err: errBadMsg.Error()}
		if decode(raw, &m) == nil && m.Op == 'r' {
			reply.Event = m.Event
			bufs, reply.Err = pl.p.call(&m, bufs[:0])
			clear(bufs)
		}
		_, _ = pl.back.Send(encode(wire[:0], reply))
	}
}

// call runs descriptor m, gathering its operands into bufs, and
// returns bufs and the answer's error text.
func (p *Process) call(m *msg, bufs [][]byte) (_ [][]byte, errText string) {
	p.mu.Lock()
	fn := p.funcs[m.Fn]
	for _, id := range m.BufIDs {
		b := p.buffers[id]
		if b == nil {
			p.mu.Unlock()
			return bufs, ErrUnknownBuffer.Error()
		}
		bufs = append(bufs, b.sinkWin.Bytes())
	}
	p.mu.Unlock()
	if fn == nil {
		return bufs, ErrUnknownFunction.Error()
	}
	defer func() {
		if r := recover(); r != nil {
			errText = fmt.Sprintf("coi: run-function panic: %v", r)
		}
	}()
	fn(m.Args, bufs)
	return bufs, ""
}

// next reads the next answer and keeps its error. The caller holds
// readMu. It reports false once the answers are closed and drained.
func (pl *Pipeline) next() bool {
	raw, err := pl.ans.Recv()
	if err != nil {
		return false
	}
	seq := pl.read.Add(1)
	if decode(raw, &pl.reply) != nil {
		pl.errs[seq] = errBadMsg
	} else if pl.reply.Err != "" {
		pl.errs[seq] = errors.New(pl.reply.Err)
	}
	return true
}

// RunFunction enqueues a sink invocation of the named function with
// the given scalar args and buffer operands and returns at once with
// its Event. With fabric.EndpointDepth invocations unanswered it first
// reads the oldest answer, so neither inbox fills.
func (pl *Pipeline) RunFunction(name string, args []int64, bufs ...*Buffer) (Event, error) {
	var ids [8]uint64
	m := msg{Op: 'r', Fn: name, Args: args, BufIDs: ids[:0]}
	for _, b := range bufs {
		if b.proc != pl.p {
			return Event{}, ErrUnknownBuffer
		}
		m.BufIDs = append(m.BufIDs, b.id)
	}
	pl.sendMu.Lock()
	defer pl.sendMu.Unlock()
	if pl.down != nil {
		return Event{}, pl.down
	}
	if pl.sent-pl.read.Load() >= fabric.EndpointDepth {
		pl.readMu.Lock()
		if pl.sent-pl.read.Load() >= fabric.EndpointDepth { // a Wait may have read some
			pl.next()
		}
		pl.readMu.Unlock()
	}
	m.Event = pl.sent + 1
	var wire [128]byte
	if _, err := pl.src.Send(encode(wire[:0], m)); err != nil {
		return Event{}, err
	}
	pl.sent++
	return Event{pl, pl.sent}, nil
}

// Buffer is a COI buffer: sink-side storage addressable by run
// functions, filled and drained from the host over DMA.
type Buffer struct {
	proc    *Process
	id      uint64
	size    int
	sinkWin *fabric.Window
	pooled  []byte
	// allocTime is the modeled cost of the sink allocation; zero when
	// the buffer came from the pool.
	allocTime time.Duration
}

// FreshAllocCost is the modeled sink-side cost of a cold buffer
// allocation (pinning + page setup). The paper reports these as
// significant when pooling is off.
const FreshAllocCost = 300 * time.Microsecond

// CreateBuffer allocates sink storage of the given size.
func (p *Process) CreateBuffer(size int) (*Buffer, error) {
	p.mu.Lock()
	if p.down {
		p.mu.Unlock()
		return nil, ErrProcessDown
	}
	id := p.id()
	p.mu.Unlock()

	b := &Buffer{proc: p, id: id, size: size}
	if p.pool != nil {
		mem, fresh := p.pool.Get(size)
		b.pooled = mem
		// Capped at size: past it lies the stale tail of the block.
		b.sinkWin = fabric.RegisterBacked(p.sink, mem[:size:size])
		if fresh {
			b.allocTime = FreshAllocCost
			p.poolMisses.Inc()
		} else {
			p.poolHits.Inc()
		}
	} else {
		b.sinkWin = fabric.Register(p.sink, size)
		b.allocTime = FreshAllocCost
		p.poolMisses.Inc()
	}
	p.mu.Lock()
	p.buffers[id] = b
	p.mu.Unlock()
	return b, nil
}

// Destroy releases the buffer (returning pooled storage to the pool).
func (b *Buffer) Destroy() {
	b.proc.mu.Lock()
	delete(b.proc.buffers, b.id)
	pool := b.proc.pool
	b.proc.mu.Unlock()
	if pool != nil && b.pooled != nil {
		pool.Put(b.pooled)
		b.pooled = nil
	}
}

// Size returns the buffer's length in bytes.
func (b *Buffer) Size() int { return b.size }

// AllocTime returns the modeled cost of this buffer's allocation
// (zero if it was satisfied from the pool).
func (b *Buffer) AllocTime() time.Duration { return b.allocTime }

// Write moves host bytes into the sink instance at off and returns the
// modeled wire time.
func (b *Buffer) Write(off int, src []byte) (time.Duration, error) {
	if off < 0 || off+len(src) > b.size {
		return 0, ErrBadRange
	}
	return b.sinkWin.DMAWrite(b.proc.fab, b.proc.source, off, src)
}

// Read moves sink bytes at off back to the host and returns the
// modeled wire time.
func (b *Buffer) Read(off int, dst []byte) (time.Duration, error) {
	if off < 0 || off+len(dst) > b.size {
		return 0, ErrBadRange
	}
	return b.sinkWin.DMARead(b.proc.fab, b.proc.source, off, dst)
}

// SinkBytes exposes the sink instance for sink-side (run-function)
// access in tests.
func (b *Buffer) SinkBytes() []byte { return b.sinkWin.Bytes() }
