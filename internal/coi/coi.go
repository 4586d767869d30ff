// Package coi is the Co-processor Offload Infrastructure layer of the
// stack, modeled on Intel COI, the plumbing hStreams is built on in
// the paper (§III):
//
//	application → hStreams → COI → SCIF (internal/fabric) → PCIe
//
// It provides sink-side processes, FIFO pipelines of run-functions,
// registered buffers with host↔sink movement over fabric DMA, and
// completion events. Control traffic (run-function descriptors and
// completions) really travels over fabric endpoints, so the layering
// the paper describes is an actual code path, not a diagram.
//
// Each control message is one fixed binary record: the op byte, the
// pipeline and event ids as uvarints, the function name and the error
// text each prefixed by its uvarint length, then the scalar args as a
// uvarint count followed by zigzag varints and the buffer ids as a
// uvarint count followed by uvarints. Both ends live in one binary, so
// there is no type descriptor and no version to negotiate; decode
// rejects empty, truncated, oversized and trailing-byte input.
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
	Op       byte // 'r' run, 'c' completion, 'd' destroy pipeline, 'q' quit
	Fn       string
	Args     []int64
	BufIDs   []uint64
	Pipeline uint64
	Event    uint64
	Err      string
}

// errBadMsg is what decode returns for any input encode cannot produce.
var errBadMsg = errors.New("coi: malformed control message")

// encode appends m's wire form to dst and returns the extended slice.
// The per-message callers pass a stack array's [:0], which is safe
// because Endpoint.Send copies the payload.
func encode(dst []byte, m msg) []byte {
	dst = append(dst, m.Op)
	dst = binary.AppendUvarint(dst, m.Pipeline)
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

// decode parses one wire record. Every read is bounds-checked, and
// every length or count is checked against the bytes that remain
// (each element takes at least one) before anything is allocated.
// A zero count decodes to a nil slice, so decode∘encode∘decode is the
// identity on whatever decode accepts.
func decode(b []byte) (msg, error) {
	if len(b) == 0 {
		return msg{}, errBadMsg
	}
	m := msg{Op: b[0]}
	if m.Op != 'r' && m.Op != 'c' && m.Op != 'd' && m.Op != 'q' {
		return msg{}, errBadMsg
	}
	r := wireReader{b: b[1:]}
	m.Pipeline = r.uvarint()
	m.Event = r.uvarint()
	m.Fn = r.str()
	m.Err = r.str()
	if n := r.count(); n > 0 {
		m.Args = make([]int64, n)
		for i := range m.Args {
			m.Args[i] = r.varint()
		}
	}
	if n := r.count(); n > 0 {
		m.BufIDs = make([]uint64, n)
		for i := range m.BufIDs {
			m.BufIDs[i] = r.uvarint()
		}
	}
	if r.bad || len(r.b) != 0 {
		return msg{}, errBadMsg
	}
	return m, nil
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

func (r *wireReader) str() string {
	n := r.count()
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// Event signals completion of one run-function invocation.
type Event struct {
	done chan struct{}
	err  error
}

func newEvent() *Event { return &Event{done: make(chan struct{})} }

// Wait blocks until the invocation finished and returns its error.
func (e *Event) Wait() error {
	<-e.done
	return e.err
}

// Done returns a channel closed on completion.
func (e *Event) Done() <-chan struct{} { return e.done }

// Process is the host-side handle to a sink engine running on a card
// domain. It owns the control endpoints, the registered functions, the
// sink buffer instances, and the sink pipelines.
type Process struct {
	fab    *fabric.Fabric
	source *fabric.Node
	sink   *fabric.Node
	srcEP  *fabric.Endpoint
	sinkEP *fabric.Endpoint
	pool   *BufferPool

	// Telemetry, labeled by sink node (see Options.Metrics).
	poolHits   *metrics.Counter
	poolMisses *metrics.Counter

	mu        sync.Mutex
	funcs     map[string]RunFunc
	buffers   map[uint64]*Buffer
	pipelines map[uint64]*Pipeline
	events    map[uint64]*Event
	nextID    uint64
	down      bool // set first by Destroy; no Event or pipeline is made after it

	ending  sync.WaitGroup // Pipeline.Destroy calls that have not sent their 'd' yet
	sinkWG  sync.WaitGroup // sinkLoop and the pipeline executors
	srcDone chan struct{}  // closed when sourceLoop returns
	destroy sync.Once
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
	srcEP, sinkEP, err := fabric.ConnectPair(f, source, sink)
	if err != nil {
		return nil, err
	}
	p := &Process{
		fab:       f,
		source:    source,
		sink:      sink,
		srcEP:     srcEP,
		sinkEP:    sinkEP,
		funcs:     make(map[string]RunFunc),
		buffers:   make(map[uint64]*Buffer),
		pipelines: make(map[uint64]*Pipeline),
		events:    make(map[uint64]*Event),
		srcDone:   make(chan struct{}),
	}
	if opt.PoolBuffers {
		p.pool = NewBufferPool(DefaultPoolChunk)
	}
	p.poolHits = opt.Metrics.CounterVec("hstreams_coi_pool_hits_total", "Sink buffer allocations satisfied from the 2 MB pool.", "sink").With(sink.Name())
	p.poolMisses = opt.Metrics.CounterVec("hstreams_coi_pool_misses_total", "Sink buffer allocations that paid a cold (pinning) allocation.", "sink").With(sink.Name())
	p.sinkWG.Add(1)
	go p.sinkLoop()
	go p.sourceLoop()
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

// sinkLoop is the card-side dispatcher: it decodes run-function
// descriptors and feeds per-pipeline executors. It is the only sender
// on a pipeline queue, so it is also the one that closes it: on 'd',
// which Pipeline.Destroy sends behind the pipeline's last descriptor,
// it closes that pipeline's queue and forgets the pipeline; on 'q',
// the last message Process.Destroy sends, it closes every queue left.
// Either way the executors drain what they hold and exit.
func (p *Process) sinkLoop() {
	defer p.sinkWG.Done()
	for {
		raw, err := p.sinkEP.Recv()
		if err != nil {
			return
		}
		m, err := decode(raw)
		if err != nil {
			continue
		}
		switch m.Op {
		case 'q':
			p.mu.Lock()
			for _, pl := range p.pipelines {
				close(pl.queue)
			}
			p.mu.Unlock()
			return
		case 'd':
			p.mu.Lock()
			pl := p.pipelines[m.Pipeline]
			delete(p.pipelines, m.Pipeline)
			p.mu.Unlock()
			if pl != nil {
				close(pl.queue)
			}
		case 'r':
			p.mu.Lock()
			pl := p.pipelines[m.Pipeline]
			p.mu.Unlock()
			if pl != nil {
				pl.queue <- m
			}
		}
	}
}

// sourceLoop routes completions back to host-side events.
func (p *Process) sourceLoop() {
	defer close(p.srcDone)
	for {
		raw, err := p.srcEP.Recv()
		if err != nil {
			return
		}
		m, err := decode(raw)
		if err != nil || m.Op != 'c' {
			continue
		}
		p.mu.Lock()
		ev := p.events[m.Event]
		delete(p.events, m.Event)
		p.mu.Unlock()
		if ev != nil {
			if m.Err != "" {
				ev.err = errors.New(m.Err)
			}
			close(ev.done)
		}
	}
}

// Destroy shuts the process down, letting the sink drain first: when
// it returns, no run-function is executing and every Event that
// RunFunction handed out has completed, with its result or with
// ErrProcessDown. Calls after (or concurrent with) the first return
// once the first has finished.
func (p *Process) Destroy() {
	p.destroy.Do(func() {
		p.mu.Lock()
		p.down = true
		pls := make([]*Pipeline, 0, len(p.pipelines))
		for _, pl := range p.pipelines {
			pls = append(pls, pl)
		}
		p.mu.Unlock()
		// Once every pipeline's registered descriptors and every
		// pipeline teardown are in the sink's inbox, 'q' lands behind
		// all of them. A pipeline already gone from the table was
		// destroyed, and its 'd' came after its last descriptor.
		for _, pl := range pls {
			pl.sending.Wait()
		}
		p.ending.Wait()
		_, _ = p.srcEP.Send(encode(nil, msg{Op: 'q'}))
		// The executors ran and answered everything queued before 'q';
		// nothing sends on either endpoint any more.
		p.sinkWG.Wait()
		p.sinkEP.Close()
		p.srcEP.Close()
		<-p.srcDone
		p.mu.Lock()
		for id, ev := range p.events { // descriptors the sink never answered
			delete(p.events, id)
			ev.err = ErrProcessDown
			close(ev.done)
		}
		p.mu.Unlock()
	})
}

// Pipeline is a FIFO queue of run-function invocations executing on
// the sink — COI's ordering guarantee that hStreams builds streams on.
type Pipeline struct {
	p     *Process
	id    uint64
	queue chan msg
	// down (guarded by p.mu) is set first by Destroy; no Event is
	// registered on the pipeline after it. sending counts the
	// RunFunction calls that registered an Event and have not sent
	// yet.
	down    bool
	sending sync.WaitGroup
	exited  chan struct{} // closed when run returns
	destroy sync.Once
	// bufs is run's per-descriptor buffer list, reused: the executor
	// runs one descriptor at a time.
	bufs [][]byte
}

const pipelineDepth = 256

// CreatePipeline creates a sink pipeline with its own executor.
func (p *Process) CreatePipeline() (*Pipeline, error) {
	p.mu.Lock()
	if p.down {
		p.mu.Unlock()
		return nil, ErrProcessDown
	}
	pl := &Pipeline{p: p, id: p.id(), queue: make(chan msg, pipelineDepth), exited: make(chan struct{})}
	p.pipelines[pl.id] = pl
	p.sinkWG.Add(1)
	p.mu.Unlock()
	go pl.run()
	return pl, nil
}

// Destroy tears the pipeline down (COIPipelineDestroy): it stops
// accepting run-functions, lets the sink run the ones already
// submitted, and returns once the pipeline's executor has exited and
// the pipeline has left its process. Their events complete as usual.
// Destroy is idempotent, and safe after or during Process.Destroy,
// whose own teardown then stops the executor.
func (pl *Pipeline) Destroy() {
	pl.destroy.Do(func() {
		p := pl.p
		p.mu.Lock()
		pl.down = true
		live := !p.down // else the process's 'q' closes the queue
		if live {
			p.ending.Add(1)
		}
		p.mu.Unlock()
		if live {
			// Every registered descriptor is now in the sink's inbox,
			// so 'd' lands behind all of them.
			pl.sending.Wait()
			_, _ = p.srcEP.Send(encode(nil, msg{Op: 'd', Pipeline: pl.id}))
			p.ending.Done()
		}
		<-pl.exited
	})
}

// run executes descriptors in FIFO order on the sink.
func (pl *Pipeline) run() {
	defer pl.p.sinkWG.Done()
	defer close(pl.exited)
	var wire [64]byte
	for m := range pl.queue {
		reply := msg{Op: 'c', Event: m.Event}
		pl.p.mu.Lock()
		fn := pl.p.funcs[m.Fn]
		bufs := pl.bufs[:0]
		for _, id := range m.BufIDs {
			b := pl.p.buffers[id]
			if b == nil {
				fn = nil
				reply.Err = ErrUnknownBuffer.Error()
				break
			}
			bufs = append(bufs, b.sinkWin.Bytes())
		}
		p := pl.p
		p.mu.Unlock()
		if fn == nil {
			if reply.Err == "" {
				reply.Err = ErrUnknownFunction.Error()
			}
		} else {
			func() {
				defer func() {
					if r := recover(); r != nil {
						reply.Err = fmt.Sprintf("coi: run-function panic: %v", r)
					}
				}()
				fn(m.Args, bufs)
			}()
		}
		clear(bufs)
		pl.bufs = bufs[:0]
		_, _ = p.sinkEP.Send(encode(wire[:0], reply))
	}
}

// RunFunction enqueues a sink invocation of the named function with
// the given scalar args and buffer operands, returning immediately
// with a completion event.
func (pl *Pipeline) RunFunction(name string, args []int64, bufs ...*Buffer) (*Event, error) {
	var ids [8]uint64
	m := msg{Op: 'r', Fn: name, Args: args, BufIDs: ids[:0], Pipeline: pl.id}
	for _, b := range bufs {
		if b.proc != pl.p {
			return nil, ErrUnknownBuffer
		}
		m.BufIDs = append(m.BufIDs, b.id)
	}
	ev := newEvent()
	pl.p.mu.Lock()
	if pl.p.down {
		pl.p.mu.Unlock()
		return nil, ErrProcessDown
	}
	if pl.down {
		pl.p.mu.Unlock()
		return nil, ErrPipelineDown
	}
	m.Event = pl.p.id()
	pl.p.events[m.Event] = ev
	pl.sending.Add(1)
	pl.p.mu.Unlock()
	var wire [128]byte
	_, err := pl.p.srcEP.Send(encode(wire[:0], m))
	pl.sending.Done()
	if err != nil {
		pl.p.mu.Lock()
		delete(pl.p.events, m.Event)
		pl.p.mu.Unlock()
		return nil, err
	}
	return ev, nil
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
