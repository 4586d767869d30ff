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
// collector. Each round times forced collections with a full default
// ring, then with an empty one, and divides the difference of the two
// medians by the ring's capacity; pairing the sides within a round
// keeps the host's drift out of the difference. It reports the median
// of the rounds as gc_ns/span and their interquartile range as
// gc_ns/span_iqr. BenchmarkTraceOverhead's 5% budget times
// recording with the collector off, so this is where the cost of
// keeping spans shows. make overhead runs it and reports it; it bounds
// nothing.
func BenchmarkFlightRingGC(b *testing.B) {
	const perSide = 7
	var perSpan []float64
	for range b.N {
		f := NewFlight(0)
		fillRing(f)
		runtime.GC()
		full := medianDur(gcTimes(nil, perSide))
		runtime.KeepAlive(f)
		f = NewFlight(0)
		runtime.GC()
		empty := medianDur(gcTimes(nil, perSide))
		runtime.KeepAlive(f)
		perSpan = append(perSpan, float64(full-empty)/float64(defaultFlightCap))
	}
	slices.Sort(perSpan)
	q := func(p float64) float64 { return perSpan[int(p*float64(len(perSpan)-1)+0.5)] }
	b.ReportMetric(0, "ns/op")
	b.ReportMetric(q(0.5), "gc_ns/span")
	b.ReportMetric(q(0.75)-q(0.25), "gc_ns/span_iqr")
}
