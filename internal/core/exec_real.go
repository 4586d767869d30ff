package core

import (
	"fmt"
	"sync"
	"time"

	"hstreams/internal/coi"
	"hstreams/internal/fault"
)

// trampolineName is the sink-side symbol all compute actions dispatch
// through on card domains; it decodes operand ranges and calls the
// registered kernel.
const trampolineName = "hs.kernel"

// realExec runs actions for real: kernels execute on per-domain worker
// pools, card-domain computes travel through the COI pipeline of their
// stream, transfers move bytes over the fabric. Computes within one
// stream serialize on the stream's compute resource (they own the
// stream's cores); transfers use per-link-direction DMA serialization,
// so compute/transfer overlap is real.
type realExec struct {
	rt    *Runtime
	epoch time.Time
	// dma[i] serializes the two DMA directions of domain i.
	dma []*[2]sync.Mutex
	// pools[i] runs domain i's actions. The seed spawned a goroutine
	// per action; small-action streams then paid a goroutine start +
	// exit on every launch and could pile up unbounded runnable
	// goroutines. A fixed pool sized to the domain keeps dispatch at
	// one queue push.
	pools []*workerPool
	// scratch recycles the per-compute slices (host operand views,
	// card wire args and COI buffer lists) that the seed allocated on
	// every action.
	scratch sync.Pool
	// res is the resilience state: retry/deadline policies and the
	// per-domain breakers (resilience.go).
	res *resState
}

func newRealExec(rt *Runtime) *realExec {
	re := &realExec{rt: rt, epoch: time.Now()}
	re.dma = make([]*[2]sync.Mutex, len(rt.domains))
	re.pools = make([]*workerPool, len(rt.domains))
	re.res = newResState(rt)
	for i, d := range rt.domains {
		re.dma[i] = &[2]sync.Mutex{}
		re.pools[i] = newWorkerPool(re, poolWorkers(d.spec.Cores()))
	}
	re.scratch.New = func() any { return new(execScratch) }
	return re
}

// poolWorkers sizes a domain's pool: one worker per core within sane
// bounds. A busy compute resource occupies one worker (its other ready
// computes queue on it, see computeRes), but workers still block in
// kernels, on card completions and on the DMA mutexes, so matching the
// core count keeps every physical resource feedable.
func poolWorkers(cores int) int {
	switch {
	case cores < 4:
		return 4
	case cores > 32:
		return 32
	default:
		return cores
	}
}

// actionFIFO is an unbounded FIFO of actions; its owner guards it.
type actionFIFO struct {
	q    []*Action
	head int
}

func (f *actionFIFO) push(a *Action) { f.q = append(f.q, a) }

// pop returns the oldest action, or nil when the FIFO is empty.
func (f *actionFIFO) pop() *Action {
	if f.head == len(f.q) {
		return nil
	}
	a := f.q[f.head]
	f.q[f.head] = nil
	f.head++
	if f.head == len(f.q) {
		f.q = f.q[:0]
		f.head = 0
	}
	return a
}

// workerPool is a fixed set of goroutines draining an unbounded FIFO.
// The queue is deliberately unbounded: workers call Runtime.finish,
// which launches successors back into pools — a bounded channel could
// deadlock with every worker blocked on a full queue.
type workerPool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      actionFIFO
	closed bool
}

func newWorkerPool(re *realExec, workers int) *workerPool {
	p := &workerPool{}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		go p.work(re)
	}
	return p
}

func (p *workerPool) submit(a *Action) {
	p.mu.Lock()
	p.q.push(a)
	p.mu.Unlock()
	p.cond.Signal()
}

func (p *workerPool) work(re *realExec) {
	for {
		p.mu.Lock()
		a := p.q.pop()
		for a == nil && !p.closed {
			p.cond.Wait()
			a = p.q.pop()
		}
		p.mu.Unlock()
		if a == nil {
			return
		}
		re.run(a)
	}
}

// close releases the workers once the queue drains. Fini synchronizes
// all work first, so nothing new arrives.
func (p *workerPool) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// computeRes is a Real-mode compute resource: the cores of one stream,
// or of the streams StreamCreateOn maps onto them. It runs one compute
// at a time. A ready compute that finds it busy waits in its FIFO
// instead of parking a pool worker, and the worker holding the
// resource runs the queued computes after its own (see realExec.run).
type computeRes struct {
	mu   sync.Mutex
	busy bool
	q    actionFIFO
}

// acquire takes the resource for a and reports whether it got it;
// otherwise a is queued and the holder runs it later.
func (r *computeRes) acquire(a *Action) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.busy {
		r.q.push(a)
		return false
	}
	r.busy = true
	return true
}

// next hands the resource to the oldest queued compute, or frees it
// and returns nil when none waits.
func (r *computeRes) next() *Action {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.q.pop()
	if a == nil {
		r.busy = false
	}
	return a
}

// resTurn bounds how many computes of one resource a pool worker runs
// back to back. The next queued compute then goes to the tail of the
// pool, still holding the resource, so a resource whose queue never
// empties cannot keep a worker from other resources' computes.
const resTurn = 64

// execScratch is the recycled per-compute state.
type execScratch struct {
	ops     [][]byte
	targs   []int64
	coiBufs []*coi.Buffer
	ctx     KernelCtx
}

// launch hands a ready action to its domain's pool. A compute first
// takes its stream's compute resource; if that is busy it queues there.
func (re *realExec) launch(a *Action) {
	if a.kind == ActCompute && !a.stream.res.acquire(a) {
		return
	}
	re.pools[a.stream.domain.index].submit(a)
}

// run executes an action drawn from a pool. A compute arrives holding
// its resource; the worker then runs the computes queued behind it,
// each after the previous one's finish, and frees the resource when
// none is left (or passes it on after resTurn of them).
func (re *realExec) run(a *Action) {
	if a.kind != ActCompute {
		re.runOne(a)
		return
	}
	res := a.stream.res
	for n := 1; ; n++ {
		re.runOne(a)
		if a = res.next(); a == nil {
			return
		}
		if n == resTurn {
			re.pools[a.stream.domain.index].submit(a)
			return
		}
	}
}

// runOne executes a and finishes it. A compute holds its resource.
func (re *realExec) runOne(a *Action) {
	s := a.stream
	if a.kind == ActSync {
		a.rec.Launch = re.now()
		a.rec.Finish = a.rec.Launch
		re.rt.finish(a, nil)
		return
	}
	if s.domain.IsHost() {
		// Host actions have no fabric or sink process to fail; they
		// bypass the resilience path entirely.
		var err error
		if a.kind == ActCompute {
			a.rec.Launch = re.now()
			err = re.computeHost(a)
			a.rec.Finish = re.now()
		} else {
			// Host-as-target streams alias instances; optimized away.
			a.rec.Launch = re.now()
			a.rec.Finish = a.rec.Launch
		}
		re.rt.finish(a, err)
		return
	}
	re.rt.finish(a, re.runCardAction(a))
}

// runCardAction executes one card-domain action under the resilience
// machinery: quarantined domains re-route to the host, everything
// else goes through the retry/deadline loop. The inflight counter
// brackets the card-side attempt window for the breaker's drain
// handshake (see resilience.go); a re-routing action must leave the
// window first or the drain would wait on it forever.
func (re *realExec) runCardAction(a *Action) error {
	dr := re.res.dom[a.stream.domain.index]
	if dr.isQuarantined() {
		return re.runRerouted(a, dr)
	}
	dr.inflight.Add(1)
	if dr.isQuarantined() {
		// Raced with the breaker trip: step back out and re-route.
		dr.inflight.Add(-1)
		return re.runRerouted(a, dr)
	}
	err := re.runCard(a, dr)
	dr.inflight.Add(-1)
	if _, ok := err.(*needReroute); ok {
		return re.runRerouted(a, dr)
	}
	return err
}

// runCard is the retry/deadline loop around one card action's
// attempts. A compute keeps its resource through the backoff, so no
// later compute of the stream slips in between its attempts. The
// order of checks after a failed attempt matters: fatal errors are
// final, then the deadline (so a doomed action stops burning the
// link), then quarantine (the breaker may have tripped — possibly by
// our own failure — and re-routing beats retrying into a dead
// domain), then the retry budget.
func (re *realExec) runCard(a *Action, dr *domainRes) error {
	rp := re.res.retry
	dl := re.res.deadline
	var t0 time.Duration
	if dl > 0 {
		// The deadline bounds attempts, not the wait for Alloc1D to
		// finish creating the card instances; an instantiation error
		// surfaces from the first attempt.
		for _, o := range a.ops {
			o.Buf.card(a.stream.domain.index)
		}
		t0 = re.now()
	}
	for attempt := 0; ; attempt++ {
		err := re.attemptCard(a)
		if err == nil {
			dr.succeed(a)
			return nil
		}
		if !fault.IsTransient(err) {
			return err
		}
		dr.fail()
		if dl > 0 && re.now()-t0 >= dl {
			a.resNote().deadlineHit = true
			dr.deadlines.Inc()
			return fmt.Errorf("%w: %s after %d attempt(s), last error: %v",
				ErrDeadlineExceeded, a.kind, attempt+1, err)
		}
		if dr.isQuarantined() {
			return &needReroute{cause: err}
		}
		if attempt >= rp.Max {
			if rp.Max > 0 {
				// Budget consumed (not merely absent): mark the note so
				// finish emits EvRetriesExhausted off the attempt path.
				a.resNote().exhausted = true
			}
			return err
		}
		wait := rp.wait(re.res.seed, a.rec.ID, attempt)
		note := a.resNote()
		note.retries++
		note.retryWait += wait
		dr.retries.Inc()
		if wait > 0 {
			time.Sleep(wait)
		}
	}
}

// attemptCard makes one attempt at a card action. It is where the
// fault injector is consulted: holding the compute resource or the DMA
// lock, after the stamp, before the descriptor is sent or any bytes
// move. So a failed attempt has no side effects and attempts may
// repeat freely.
// a.rec.Launch is stamped once (first attempt) and a.rec.Finish after
// every attempt, so the recorded duration spans retries and backoff.
func (re *realExec) attemptCard(a *Action) error {
	s := a.stream
	di := s.domain.index
	// The first action to need a card instance waits here for Alloc1D
	// to finish creating it, before taking the DMA lock.
	for _, o := range a.ops {
		if _, err := o.Buf.card(di); err != nil {
			re.stamp(a)
			a.rec.Finish = re.now()
			return err
		}
	}
	if a.kind == ActCompute {
		re.stamp(a)
		var err error
		if inj := re.rt.cfg.Faults; inj != nil {
			err = inj.Kernel(s.domain.spec.Name)
		}
		if err == nil {
			err = re.computeCard(a)
		}
		a.rec.Finish = re.now()
		return err
	}
	o := a.ops[0]
	cb, _ := o.Buf.card(di)
	dir := 0
	if a.kind == ActXferToSrc {
		dir = 1
	}
	mu := &re.dma[di][dir]
	mu.Lock()
	defer mu.Unlock()
	re.stamp(a)
	err := re.injectTransfer(di, dir)
	if err == nil {
		if a.kind == ActXferToSink {
			_, err = cb.Write(int(o.Off), o.Buf.host[o.Off:o.Off+o.Len])
		} else {
			_, err = cb.Read(int(o.Off), o.Buf.host[o.Off:o.Off+o.Len])
		}
	}
	a.rec.Finish = re.now()
	return err
}

// injectTransfer consults the fault injector, if any, before one DMA
// between the host and card domain di: host→card for dir 0,
// card→host for dir 1. It sleeps out an injected delay even when it
// also returns an error — a degraded link is slow to fail, too.
func (re *realExec) injectTransfer(di, dir int) error {
	inj := re.rt.cfg.Faults
	if inj == nil {
		return nil
	}
	src, dst := re.rt.domains[0].spec.Name, re.rt.domains[di].spec.Name
	if dir == 1 {
		src, dst = dst, src
	}
	delay, err := inj.Transfer(src, dst)
	if delay > 0 {
		time.Sleep(delay)
	}
	return err
}

// runRerouted executes a card-bound action on the host domain after
// its domain quarantined: computes run against the host instances,
// transfers become no-ops (host-as-target aliasing). Dependence
// analysis already ran against the original domain and is NOT redone —
// the partial order is a property of the program, not of where
// actions execute — so the FIFO-with-overlap semantic is preserved
// (DESIGN.md §6). The first re-routed action performs the quarantine
// drain + dirty-range flush inside awaitFlush.
func (re *realExec) runRerouted(a *Action, dr *domainRes) error {
	if err := dr.awaitFlush(re); err != nil {
		return err
	}
	a.resNote().rerouted = true
	dr.rerouted.Inc()
	if a.kind == ActCompute {
		re.stamp(a)
		err := re.computeHost(a)
		a.rec.Finish = re.now()
		return err
	}
	// The host instance is now the action's source AND sink.
	re.stamp(a)
	a.rec.Finish = re.now()
	return nil
}

// stamp sets a.rec.Launch on the action's first attempt only, so
// retries and re-routes never restamp it.
func (re *realExec) stamp(a *Action) {
	if !a.started {
		a.rec.Launch = re.now()
		a.started = true
	}
}

// computeHost executes a kernel against the host instances — the
// host-as-target path, also used for re-routed card computes. Scratch
// slices are recycled — safe because kernels must not retain their
// KernelCtx.
func (re *realExec) computeHost(a *Action) error {
	sc := re.scratch.Get().(*execScratch)
	defer re.scratch.Put(sc)
	ops := sc.ops[:0]
	for _, o := range a.ops {
		ops = append(ops, o.Buf.host[o.Off:o.Off+o.Len])
	}
	sc.ctx = KernelCtx{Args: a.args, Ops: ops, Threads: a.stream.nCores}
	err := safeCall(re.rt.kernelByID(a.kernelID), &sc.ctx)
	for i := range ops {
		ops[i] = nil
	}
	sc.ops, sc.ctx = ops[:0], KernelCtx{}
	return err
}

// computeCard ships one kernel invocation through the stream's COI
// pipeline: [kernelID, threads, nArgs, args…, nOps, (off,len)…] plus
// the operands' COI buffers, which attemptCard has already waited
// for. Scratch recycling is safe because coi.RunFunction serializes
// args and buffer ids before returning.
func (re *realExec) computeCard(a *Action) error {
	s := a.stream
	sc := re.scratch.Get().(*execScratch)
	defer re.scratch.Put(sc)
	targs := sc.targs[:0]
	targs = append(targs, a.kernelID, int64(s.nCores), int64(len(a.args)))
	targs = append(targs, a.args...)
	targs = append(targs, int64(len(a.ops)))
	coiBufs := sc.coiBufs[:0]
	for _, o := range a.ops {
		targs = append(targs, o.Off, o.Len)
		cb, _ := o.Buf.card(s.domain.index)
		coiBufs = append(coiBufs, cb)
	}
	ev, err := s.pipeline.RunFunction(trampolineName, targs, coiBufs...)
	for i := range coiBufs {
		coiBufs[i] = nil
	}
	sc.targs, sc.coiBufs = targs[:0], coiBufs[:0]
	if err != nil {
		return err
	}
	return ev.Wait()
}

// safeCall invokes a kernel, converting panics into errors so one bad
// kernel cannot take the runtime down.
func safeCall(fn Kernel, ctx *KernelCtx) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: kernel panic: %v", r)
		}
	}()
	fn(ctx)
	return nil
}

func (re *realExec) waitAction(a *Action) { <-a.Done() }

func (re *realExec) now() time.Duration { return time.Since(re.epoch) }

func (re *realExec) fini() {
	for _, p := range re.pools {
		p.close()
	}
	// Quarantine is one-way for the runtime's lifetime (re-admission is
	// re-Init, per OPERATIONS.md), so teardown is where degraded state
	// formally ends: return the gauges the health rules watch to 0 and
	// journal the clear, letting a /debug/health verdict recover after
	// the run instead of pinning critical forever.
	for _, dr := range re.res.dom {
		if dr.quarantined.Load() {
			dr.quarGauge.Set(0)
			dr.emit(RuntimeEvent{Kind: EvQuarantineCleared, Domain: dr.name})
		}
	}
}

// trampoline is the sink-side entry point registered with every COI
// process; it decodes the wire arguments built in computeCard. The
// operand views and the KernelCtx come from the scratch pool, like
// computeHost's: kernels must not retain their KernelCtx.
func (rt *Runtime) trampoline(args []int64, bufs [][]byte) {
	kid, threads, nArgs := args[0], args[1], args[2]
	user := args[3 : 3+nArgs]
	rest := args[3+nArgs:]
	nOps := rest[0]
	fn := rt.kernelByID(kid)
	if fn == nil {
		panic(fmt.Sprintf("core: sink kernel id %d not registered", kid))
	}
	re := rt.exec.(*realExec)
	sc := re.scratch.Get().(*execScratch)
	ops := sc.ops[:0]
	for i := int64(0); i < nOps; i++ {
		off, ln := rest[1+2*i], rest[2+2*i]
		ops = append(ops, bufs[i][off:off+ln])
	}
	sc.ctx = KernelCtx{Args: user, Ops: ops, Threads: int(threads)}
	// A kernel that panics (the pipeline recovers) leaves its scratch
	// to the collector.
	fn(&sc.ctx)
	clear(ops)
	sc.ops, sc.ctx = ops[:0], KernelCtx{}
	re.scratch.Put(sc)
}
