// Layering analysis (§III): the paper's contribution 3 is "a
// description of our approach to layering hStreams above other
// plumbing layers …, with minimal overheads". These tests and
// benchmarks move the same bytes through each layer of this
// implementation's real stack —
//
//	raw fabric DMA  →  COI buffer write  →  hStreams EnqueueXfer
//
// — and verify that the stack adds a per-action cost, never a second
// copy of the data: TestLayeringAddsNoCopy counts bytes in tier-1, and
// BenchmarkLayering, run by make overhead, holds the wall clock to a
// loose bound, mirroring the paper's "<5 % overhead for transfers
// above 1 MB" observation about the real stack.
package hstreams_test

import (
	"runtime"
	"testing"
	"time"

	"hstreams/internal/coi"
	"hstreams/internal/core"
	"hstreams/internal/fabric"
	"hstreams/internal/platform"
)

const layerBytes = 8 << 20

// fabricPath moves layerBytes via a raw SCIF-style DMA write.
func fabricPath(b testing.TB, iters int) time.Duration {
	f := fabric.New()
	host := f.AddNode("host")
	card := f.AddNode("card")
	if _, err := f.Connect(host, card, platform.PCIe()); err != nil {
		b.Fatal(err)
	}
	w := fabric.Register(card, layerBytes)
	src := make([]byte, layerBytes)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := w.DMAWrite(f, host, 0, src); err != nil {
			b.Fatal(err)
		}
	}
	return time.Since(start)
}

// coiPath moves layerBytes through a COI buffer write.
func coiPath(b testing.TB, iters int) time.Duration {
	f := fabric.New()
	host := f.AddNode("host")
	card := f.AddNode("card")
	if _, err := f.Connect(host, card, platform.PCIe()); err != nil {
		b.Fatal(err)
	}
	p, err := coi.CreateProcess(f, host, card, coi.Options{PoolBuffers: true})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Destroy()
	buf, err := p.CreateBuffer(layerBytes)
	if err != nil {
		b.Fatal(err)
	}
	src := make([]byte, layerBytes)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := buf.Write(0, src); err != nil {
			b.Fatal(err)
		}
	}
	return time.Since(start)
}

// hstreamsXfer builds a Real runtime with one card stream and one
// layerBytes buffer, and returns a function that moves the buffer to
// the card through a full hStreams transfer action (enqueue,
// dependence analysis, COI, fabric, completion) and waits for it.
func hstreamsXfer(tb testing.TB) (*core.Runtime, func()) {
	rt, err := core.Init(core.Config{Machine: platform.HSWPlusKNC(1), Mode: core.ModeReal})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := rt.StreamCreate(rt.Card(0), 0, 8)
	if err != nil {
		rt.Fini()
		tb.Fatal(err)
	}
	buf, err := rt.Alloc1D("x", layerBytes)
	if err != nil {
		rt.Fini()
		tb.Fatal(err)
	}
	return rt, func() {
		a, err := s.EnqueueXferAll(buf, core.ToSink)
		if err != nil {
			tb.Fatal(err)
		}
		if err := a.Wait(); err != nil {
			tb.Fatal(err)
		}
	}
}

// hstreamsPath moves layerBytes through a full hStreams transfer
// action.
func hstreamsPath(b testing.TB, iters int) time.Duration {
	rt, xfer := hstreamsXfer(b)
	defer rt.Fini()
	start := time.Now()
	for i := 0; i < iters; i++ {
		xfer()
	}
	return time.Since(start)
}

// maxXferHeapBytes bounds the heap bytes one 8 MiB hStreams transfer
// may allocate. It measures about 470 B in 6 objects, a per-action
// cost; one copy of the data would be 8 MiB.
const maxXferHeapBytes = 4 << 10

// TestLayeringAddsNoCopy is the tier-1 proxy for the §III property:
// one 8 MiB hStreams transfer puts exactly its bytes on the link and
// allocates a per-action amount of heap, so the stack adds per-action
// costs, never a second copy of the data.
func TestLayeringAddsNoCopy(t *testing.T) {
	rt, xfer := hstreamsXfer(t)
	defer rt.Fini()
	linkBytes := func() (n int64) {
		for _, l := range rt.LinkStats() {
			n += l.Bytes
		}
		return n
	}
	xfer() // the first transfer waits for the card instance
	const iters = 16
	before := linkBytes()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < iters; i++ {
		xfer()
	}
	runtime.ReadMemStats(&m1)
	if got := linkBytes() - before; got != iters*layerBytes {
		t.Fatalf("%d transfers of %d B put %d B on the link, want exactly %d", iters, layerBytes, got, iters*layerBytes)
	}
	perBytes := (m1.TotalAlloc - m0.TotalAlloc) / iters
	perObjs := (m1.Mallocs - m0.Mallocs) / iters
	if perBytes > maxXferHeapBytes {
		t.Fatalf("one %d-B transfer allocated %d B in %d objects, want ≤ %d B", layerBytes, perBytes, perObjs, maxXferHeapBytes)
	}
	t.Logf("one %d-B transfer: %d link bytes, %d heap bytes in %d objects", layerBytes, layerBytes, perBytes, perObjs)
}

// BenchmarkLayering reports per-layer throughput for the same 8 MB
// transfer (the §III overhead decomposition) and fails the run when
// the hStreams path takes more than twice the raw fabric DMA; make
// overhead runs it once (-benchtime 1x) inside make check. Paths are
// measured interleaved, best-of-N each, so that ambient load on a
// shared machine cannot skew one side. The paper's claim is <5% on
// dedicated hardware; wall clock on a shared CI box jitters by integer
// factors even best-of-N, so the bound is deliberately loose: the
// point is that the stack adds per-action costs in the microseconds,
// not another copy of the data. Race instrumentation taxes the
// synchronization-heavy hStreams path far more than the raw memcpy
// path, so the bound is meaningless under the race detector.
func BenchmarkLayering(b *testing.B) {
	const rounds = 5
	iters := 8 * b.N
	paths := []struct {
		name string
		run  func(testing.TB, int) time.Duration
		best time.Duration
	}{
		{name: "fabricDMA", run: fabricPath},
		{name: "coiBufferWrite", run: coiPath},
		{name: "hstreamsXfer", run: hstreamsPath},
	}
	for r := 0; r < rounds; r++ {
		for i := range paths {
			if d := paths[i].run(b, iters); paths[i].best == 0 || d < paths[i].best {
				paths[i].best = d
			}
		}
	}
	for _, p := range paths {
		b.ReportMetric(float64(layerBytes)*float64(iters)/p.best.Seconds()/1e6, p.name+"_MB/s")
	}
	raw, viaHS := paths[0].best, paths[2].best
	b.Logf("8 MB ×%d best-of-%d: fabric %v, COI %v, hStreams %v", iters, rounds, raw, paths[1].best, viaHS)
	if float64(viaHS) > 2.0*float64(raw) {
		b.Fatalf("hStreams layer overhead too high: %v vs raw %v", viaHS, raw)
	}
}
