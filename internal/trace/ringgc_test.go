package trace

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

// fillRing publishes f.Cap() records shaped like a runtime's: eight
// streams, each with its own slab and identities; computes labelled
// with a shared kernel name and transfers with their buffer's heap
// label; two edges each, and every sixteenth record five, which spills
// into its overflow record.
func fillRing(f *FlightRecorder) {
	const streams = 8
	slabs := make([]*RecSlab, streams)
	for s := range slabs {
		name := fmt.Sprintf("KNC0.s%d", s)
		plain := &Ident{Run: 1, Stream: name, Domain: "KNC0"}
		toSink := &Ident{Run: 1, Stream: name, Domain: "KNC0", Src: "HSW", Dst: "KNC0"}
		toSrc := &Ident{Run: 1, Stream: name, Domain: "KNC0", Src: "KNC0", Dst: "HSW"}
		slabs[s] = NewRecSlab(plain, toSink, toSrc, plain)
	}
	var label string
	for i := range f.Cap() {
		r := slabs[i%streams].New()
		r.ID = uint64(i + 1)
		r.Finish = time.Duration(i)
		switch kind := i / streams % 3; kind {
		case 0:
			label = fmt.Sprintf("xfer→sink tile%d", i)
			r.SetIdent(1)
			r.SetLabel(label)
			r.Kind = Transfer
		case 1:
			r.SetIdent(0)
			r.SetLabel("dgemm")
			r.Kind = Compute
		case 2:
			r.SetIdent(2)
			r.SetLabel(label)
			r.Kind = Transfer
		}
		deps := 2
		if i%16 == 0 {
			deps = 5
		}
		for j := range deps {
			r.AddDep(Dep{ID: uint64(i - j), Why: DepFIFO})
		}
		f.Publish(r)
	}
}

// gcTimes appends the wall time of n forced collections to ts.
func gcTimes(ts []time.Duration, n int) []time.Duration {
	for range n {
		t0 := time.Now()
		runtime.GC()
		ts = append(ts, time.Since(t0))
	}
	return ts
}

func medianDur(ts []time.Duration) time.Duration {
	s := slices.Clone(ts)
	slices.Sort(s)
	return s[len(s)/2]
}

// BenchmarkFlightRingGC reports what retained spans cost the garbage
// collector: the median forced collection with a full default ring
// minus the median with an empty one, divided by the ring's capacity,
// as gc_ns/span. BenchmarkTraceOverhead's 5% budget times recording
// with the collector off, so this is where the cost of keeping spans
// shows. make overhead runs it and reports it; it bounds nothing.
func BenchmarkFlightRingGC(b *testing.B) {
	const perSide = 7
	var full, empty []time.Duration
	for range b.N {
		f := NewFlight(0)
		fillRing(f)
		runtime.GC()
		full = gcTimes(full, perSide)
		runtime.KeepAlive(f)
		f = NewFlight(0)
		runtime.GC()
		empty = gcTimes(empty, perSide)
		runtime.KeepAlive(f)
	}
	fullMed, emptyMed := medianDur(full), medianDur(empty)
	b.ReportMetric(0, "ns/op")
	b.ReportMetric(float64(fullMed.Microseconds())/1e3, "full_gc_ms")
	b.ReportMetric(float64(emptyMed.Microseconds())/1e3, "empty_gc_ms")
	b.ReportMetric(float64(fullMed-emptyMed)/float64(defaultFlightCap), "gc_ns/span")
}
