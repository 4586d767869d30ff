package coi

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hstreams/internal/fabric"
	"hstreams/internal/platform"
)

func newProcess(t *testing.T, opt Options) *Process {
	t.Helper()
	f := fabric.New()
	host := f.AddNode("host")
	card := f.AddNode("knc0")
	if _, err := f.Connect(host, card, platform.PCIe()); err != nil {
		t.Fatal(err)
	}
	p, err := CreateProcess(f, host, card, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Destroy)
	return p
}

func TestRunFunctionRoundTrip(t *testing.T) {
	p := newProcess(t, Options{PoolBuffers: true})
	p.RegisterFunction("fill", func(args []int64, bufs [][]byte) {
		for i := range bufs[0] {
			bufs[0][i] = byte(args[0])
		}
	})
	buf, err := p.CreateBuffer(64)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := p.CreatePipeline()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := pl.RunFunction("fill", []int64{7}, buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 64)
	if _, err := buf.Read(0, out); err != nil {
		t.Fatal(err)
	}
	for _, b := range out {
		if b != 7 {
			t.Fatalf("sink wrote %d, want 7", b)
		}
	}
}

func TestPipelineIsFIFO(t *testing.T) {
	p := newProcess(t, Options{PoolBuffers: true})
	var mu sync.Mutex
	var order []int64
	p.RegisterFunction("log", func(args []int64, _ [][]byte) {
		mu.Lock()
		order = append(order, args[0])
		mu.Unlock()
	})
	pl, _ := p.CreatePipeline()
	var last Event
	for i := int64(0); i < 50; i++ {
		ev, err := pl.RunFunction("log", []int64{i})
		if err != nil {
			t.Fatal(err)
		}
		last = ev
	}
	if err := last.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 50 {
		t.Fatalf("executed %d, want 50", len(order))
	}
	for i, v := range order {
		if v != int64(i) {
			t.Fatalf("pipeline reordered: %v", order)
		}
	}
}

func TestTwoPipelinesRunConcurrently(t *testing.T) {
	p := newProcess(t, Options{PoolBuffers: true})
	gate := make(chan struct{})
	p.RegisterFunction("block", func(_ []int64, _ [][]byte) { <-gate })
	p.RegisterFunction("open", func(_ []int64, _ [][]byte) { close(gate) })
	pl1, _ := p.CreatePipeline()
	pl2, _ := p.CreatePipeline()
	evBlocked, _ := pl1.RunFunction("block", nil)
	evOpen, _ := pl2.RunFunction("open", nil)
	// If pipelines shared an executor this would deadlock; use a
	// timeout to fail fast instead.
	done := make(chan struct{})
	go func() {
		_ = evOpen.Wait()
		_ = evBlocked.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pipelines serialized against each other")
	}
}

func TestUnknownFunctionError(t *testing.T) {
	p := newProcess(t, Options{})
	pl, _ := p.CreatePipeline()
	ev, err := pl.RunFunction("nope", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err == nil {
		t.Fatal("unknown function must report an error")
	}
}

func TestRunFunctionPanicIsContained(t *testing.T) {
	p := newProcess(t, Options{})
	p.RegisterFunction("boom", func(_ []int64, _ [][]byte) { panic("kaboom") })
	p.RegisterFunction("ok", func(_ []int64, _ [][]byte) {})
	pl, _ := p.CreatePipeline()
	ev, _ := pl.RunFunction("boom", nil)
	if err := ev.Wait(); err == nil {
		t.Fatal("panic must surface as an error")
	}
	ev2, _ := pl.RunFunction("ok", nil)
	if err := ev2.Wait(); err != nil {
		t.Fatalf("pipeline dead after contained panic: %v", err)
	}
}

func TestBufferWriteReadBounds(t *testing.T) {
	p := newProcess(t, Options{PoolBuffers: true})
	b, _ := p.CreateBuffer(100)
	if _, err := b.Write(90, make([]byte, 20)); err != ErrBadRange {
		t.Fatalf("overrun write err = %v", err)
	}
	if _, err := b.Read(-1, make([]byte, 4)); err != ErrBadRange {
		t.Fatalf("negative read err = %v", err)
	}
	if b.Size() != 100 {
		t.Fatalf("Size = %d", b.Size())
	}
}

func TestBufferDataIntegrityThroughDMA(t *testing.T) {
	p := newProcess(t, Options{PoolBuffers: true})
	b, _ := p.CreateBuffer(8 * 128)
	src := make([]byte, 8*128)
	for i := 0; i < 128; i++ {
		binary.LittleEndian.PutUint64(src[i*8:], uint64(i*i))
	}
	if _, err := b.Write(0, src); err != nil {
		t.Fatal(err)
	}
	p.RegisterFunction("double", func(_ []int64, bufs [][]byte) {
		for i := 0; i < 128; i++ {
			v := binary.LittleEndian.Uint64(bufs[0][i*8:])
			binary.LittleEndian.PutUint64(bufs[0][i*8:], v*2)
		}
	})
	pl, _ := p.CreatePipeline()
	ev, _ := pl.RunFunction("double", nil, b)
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 8*128)
	if _, err := b.Read(0, out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		if got := binary.LittleEndian.Uint64(out[i*8:]); got != uint64(2*i*i) {
			t.Fatalf("elem %d = %d, want %d", i, got, 2*i*i)
		}
	}
}

func TestPoolAvoidsFreshAllocations(t *testing.T) {
	p := newProcess(t, Options{PoolBuffers: true})
	b1, _ := p.CreateBuffer(1 << 20)
	if b1.AllocTime() != FreshAllocCost {
		t.Fatal("first allocation should be cold")
	}
	b1.Destroy()
	b2, _ := p.CreateBuffer(1 << 20)
	if b2.AllocTime() != 0 {
		t.Fatal("pooled reallocation should be free")
	}
	for _, x := range b2.SinkBytes()[:16] {
		if x != 0 {
			t.Fatal("pooled buffer not zeroed")
		}
	}
}

func TestPoolReuseLeaksNothing(t *testing.T) {
	p := newProcess(t, Options{PoolBuffers: true})
	dirty, _ := p.CreateBuffer(DefaultPoolChunk)
	for i, mem := 0, dirty.SinkBytes(); i < len(mem); i++ {
		mem[i] = 0xFF
	}
	dirty.Destroy()
	// Smaller first, so the full-size reuse also gets the tail the
	// smaller one never cleared; each user dirties what it sees.
	for _, size := range []int{16 << 10, DefaultPoolChunk} {
		b, _ := p.CreateBuffer(size)
		if b.AllocTime() != 0 {
			t.Fatalf("size %d: not a pool hit", size)
		}
		mem := b.SinkBytes()
		if len(mem) != size || cap(mem) != size {
			t.Fatalf("size %d: sink instance len %d cap %d, want both %d", size, len(mem), cap(mem), size)
		}
		for i, x := range mem {
			if x != 0 {
				t.Fatalf("size %d: byte %d = %#x, want 0", size, i, x)
			}
		}
		for i := range mem {
			mem[i] = 0xFF
		}
		b.Destroy()
	}
}

func TestNoPoolAlwaysCold(t *testing.T) {
	p := newProcess(t, Options{PoolBuffers: false})
	for i := 0; i < 3; i++ {
		b, _ := p.CreateBuffer(1 << 20)
		if b.AllocTime() != FreshAllocCost {
			t.Fatal("unpooled allocation must be cold every time")
		}
		b.Destroy()
	}
}

func TestBufferPoolClasses(t *testing.T) {
	pool := NewBufferPool(DefaultPoolChunk)
	small, fresh := pool.Get(100)
	if !fresh || len(small) != DefaultPoolChunk {
		t.Fatalf("small get: fresh=%v len=%d", fresh, len(small))
	}
	big, _ := pool.Get(3 << 20)
	if len(big) != 4<<20 {
		t.Fatalf("3MB request got %d bytes, want 4MB class", len(big))
	}
	pool.Put(small)
	pool.Put(big)
	reuse, fresh := pool.Get(2 << 20)
	if fresh || len(reuse) != DefaultPoolChunk {
		t.Fatalf("expected 1-chunk reuse, fresh=%v len=%d", fresh, len(reuse))
	}
	hits, misses := pool.Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("stats = %d hits %d misses, want 1/2", hits, misses)
	}
	// Foreign blocks are dropped, not pooled.
	pool.Put(make([]byte, 123))
}

func TestDestroyedProcessRejectsWork(t *testing.T) {
	p := newProcess(t, Options{})
	pl, _ := p.CreatePipeline()
	p.Destroy()
	if _, err := p.CreatePipeline(); err != ErrProcessDown {
		t.Fatalf("CreatePipeline after destroy err = %v", err)
	}
	if _, err := p.CreateBuffer(16); err != ErrProcessDown {
		t.Fatalf("CreateBuffer after destroy err = %v", err)
	}
	if _, err := pl.RunFunction("x", nil); err != ErrProcessDown {
		t.Fatalf("RunFunction after destroy err = %v", err)
	}
	p.Destroy() // second destroy must be safe
}

func TestForeignBufferRejected(t *testing.T) {
	p1 := newProcess(t, Options{})
	p2 := newProcess(t, Options{})
	b, _ := p2.CreateBuffer(16)
	pl, _ := p1.CreatePipeline()
	if _, err := pl.RunFunction("f", nil, b); err != ErrUnknownBuffer {
		t.Fatalf("foreign buffer err = %v", err)
	}
}

func TestManyConcurrentRunFunctions(t *testing.T) {
	p := newProcess(t, Options{PoolBuffers: true})
	var counter int64
	var mu sync.Mutex
	p.RegisterFunction("inc", func(_ []int64, _ [][]byte) {
		mu.Lock()
		counter++
		mu.Unlock()
	})
	const pipes, per = 8, 40
	var wg sync.WaitGroup
	for i := 0; i < pipes; i++ {
		pl, err := p.CreatePipeline()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var evs []Event
			for j := 0; j < per; j++ {
				ev, err := pl.RunFunction("inc", nil)
				if err != nil {
					t.Errorf("RunFunction: %v", err)
					return
				}
				evs = append(evs, ev)
			}
			for _, ev := range evs {
				if err := ev.Wait(); err != nil {
					t.Errorf("Wait: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if counter != pipes*per {
		t.Fatalf("counter = %d, want %d", counter, pipes*per)
	}
}

func TestDestroyDrainsPendingPipelines(t *testing.T) {
	// Process teardown must let already-enqueued run-functions finish
	// rather than abandoning them (Fini semantics of the layer
	// above).
	p := newProcess(t, Options{PoolBuffers: true})
	var mu sync.Mutex
	ran := 0
	p.RegisterFunction("slowinc", func(_ []int64, _ [][]byte) {
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		ran++
		mu.Unlock()
	})
	pl, _ := p.CreatePipeline()
	var evs []Event
	for i := 0; i < 10; i++ {
		ev, err := pl.RunFunction("slowinc", nil)
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	for _, ev := range evs {
		if err := ev.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	p.Destroy()
	mu.Lock()
	defer mu.Unlock()
	if ran != 10 {
		t.Fatalf("ran = %d, want 10", ran)
	}
}

// TestPipelineDestroy checks COIPipelineDestroy semantics: the
// pipeline runs what was submitted before Destroy, its executor exits
// and it leaves the process, later submissions are refused, and the
// process's other pipelines keep working.
func TestPipelineDestroy(t *testing.T) {
	p := newProcess(t, Options{PoolBuffers: true})
	var ran atomic.Int32
	p.RegisterFunction("slowinc", func(_ []int64, _ [][]byte) {
		time.Sleep(time.Millisecond)
		ran.Add(1)
	})
	pl, _ := p.CreatePipeline()
	other, _ := p.CreatePipeline()
	var evs []Event
	for i := 0; i < 10; i++ {
		ev, err := pl.RunFunction("slowinc", nil)
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	pl.Destroy()
	if n := ran.Load(); n != 10 {
		t.Fatalf("ran %d run-functions by Destroy's return, want 10", n)
	}
	for i, ev := range evs {
		if err := ev.Wait(); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	p.mu.Lock()
	_, kept := p.pipelines[pl.id]
	p.mu.Unlock()
	if kept {
		t.Fatal("destroyed pipeline still in the process's table")
	}
	if _, err := pl.RunFunction("slowinc", nil); err != ErrPipelineDown {
		t.Fatalf("RunFunction after Destroy err = %v, want ErrPipelineDown", err)
	}
	pl.Destroy() // idempotent
	ev, err := other.RunFunction("slowinc", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineDestroyWithProcess destroys pipelines after and during
// their process's Destroy: neither order may hang or double-close.
func TestPipelineDestroyWithProcess(t *testing.T) {
	p := newProcess(t, Options{})
	p.RegisterFunction("nop", func(_ []int64, _ [][]byte) {})
	before, _ := p.CreatePipeline()
	during, _ := p.CreatePipeline()
	if _, err := during.RunFunction("nop", nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { during.Destroy(); close(done) }()
	p.Destroy()
	<-done
	before.Destroy()
}

func TestDestroyCompletesOutstandingEvents(t *testing.T) {
	p := newProcess(t, Options{PoolBuffers: true})
	var ran, running atomic.Int32
	p.RegisterFunction("slow", func(_ []int64, _ [][]byte) {
		running.Add(1)
		time.Sleep(5 * time.Millisecond)
		ran.Add(1)
		running.Add(-1)
	})
	p.RegisterFunction("quick", func(_ []int64, _ [][]byte) {
		running.Add(1)
		running.Add(-1)
	})
	pl, _ := p.CreatePipeline()
	var evs []Event
	for i := 0; i < 5; i++ {
		ev, err := pl.RunFunction("slow", nil)
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	// A second pipeline keeps enqueueing across Destroy: whatever it
	// is handed must complete too, and the rest must be refused.
	racer, _ := p.CreatePipeline()
	raced := make(chan []Event)
	go func() {
		var got []Event
		for {
			ev, err := racer.RunFunction("quick", nil)
			if err != nil {
				if err != ErrProcessDown {
					t.Errorf("RunFunction during Destroy: %v", err)
				}
				raced <- got
				return
			}
			got = append(got, ev)
		}
	}()

	p.Destroy()
	if n := running.Load(); n != 0 {
		t.Fatalf("%d run-functions still executing after Destroy", n)
	}
	if n := ran.Load(); n != 5 {
		t.Fatalf("%d of 5 enqueued run-functions ran before Destroy returned", n)
	}
	for i, ev := range evs {
		if err := waitNow(t, ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	for i, ev := range <-raced {
		if err := waitNow(t, ev); err != nil {
			t.Fatalf("racing event %d: %v", i, err)
		}
	}
}

// waitNow returns ev.Wait's result, failing t if Wait blocks.
func waitNow(t *testing.T, ev Event) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- ev.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("Wait blocked on a destroyed pipeline")
		return nil
	}
}

// TestPipelineWindow sends more than three windows of run-functions
// without waiting, every third one failing: the sender reads the
// oldest answers back itself, and each Wait, taken newest first, must
// still return its own result. Then a pipeline with more than a window
// unanswered must destroy promptly, and every Wait after must return
// at once.
func TestPipelineWindow(t *testing.T) {
	p := newProcess(t, Options{})
	p.RegisterFunction("ok", func(_ []int64, _ [][]byte) {})
	pl, _ := p.CreatePipeline()
	evs := make([]Event, 3*fabric.EndpointDepth+7)
	for i := range evs {
		name := "ok"
		if i%3 == 2 {
			name = "unregistered"
		}
		ev, err := pl.RunFunction(name, nil)
		if err != nil {
			t.Fatalf("run-function %d: %v", i, err)
		}
		evs[i] = ev
	}
	for i := len(evs) - 1; i >= 0; i-- {
		err := evs[i].Wait()
		if fails := i%3 == 2; fails != (err != nil) || fails && err.Error() != ErrUnknownFunction.Error() {
			t.Fatalf("run-function %d: Wait = %v", i, err)
		}
	}

	evs = evs[:fabric.EndpointDepth+7]
	for i := range evs {
		var err error
		if evs[i], err = pl.RunFunction("ok", nil); err != nil {
			t.Fatal(err)
		}
	}
	destroyed := make(chan struct{})
	go func() { pl.Destroy(); close(destroyed) }()
	select {
	case <-destroyed:
	case <-time.After(10 * time.Second):
		t.Fatal("Destroy blocked with more than a window unanswered")
	}
	for i, ev := range evs {
		if err := waitNow(t, ev); err != nil {
			t.Fatalf("run-function %d: %v", i, err)
		}
	}
}

func TestRunFunctionAllocs(t *testing.T) {
	p := newProcess(t, Options{PoolBuffers: true})
	p.RegisterFunction("empty", func(_ []int64, _ [][]byte) {})
	b1, _ := p.CreateBuffer(64)
	b2, _ := p.CreateBuffer(64)
	pl, _ := p.CreatePipeline()
	args := []int64{1, -2, 3 << 20, -4 << 40, 5, 6, 7, 8}
	allocs := testing.AllocsPerRun(200, func() {
		ev, err := pl.RunFunction("empty", args, b1, b2)
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.Wait(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations per RunFunction + Wait", allocs)
	if allocs > 2 {
		t.Fatalf("RunFunction + Wait = %.1f allocations, want ≤ 2", allocs)
	}
}

// TestPipelineGoroutineBudget pins the process's goroutines: one
// executor per pipeline, reading its own endpoint and answering on its
// own. A demultiplexer or a completion router would add one.
func TestPipelineGoroutineBudget(t *testing.T) {
	// settle counts goroutines once those still exiting from earlier
	// tests are gone; everything this test starts blocks until Destroy.
	settle := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 200; i++ {
			time.Sleep(time.Millisecond)
			m := runtime.NumGoroutine()
			if m == n {
				break
			}
			n = m
		}
		return n
	}
	const k = 3
	before := settle()
	p := newProcess(t, Options{})
	for i := 0; i < k; i++ {
		if _, err := p.CreatePipeline(); err != nil {
			t.Fatal(err)
		}
	}
	if got := settle() - before; got != k {
		t.Fatalf("process with %d pipelines added %d goroutines, want %d", k, got, k)
	}
	p.Destroy()
	if got := settle() - before; got != 0 {
		t.Fatalf("%d goroutines left after Destroy", got)
	}
}
