// Quickstart: offload a computation to a (simulated) coprocessor card
// with hStreams, overlapping transfers and compute — the minimal
// pattern from §II of the paper:
//
//  1. Init the library on a machine; domains are enumerated.
//  2. Create a stream whose sink is the card.
//  3. Wrap memory in buffers; enqueue transfer → compute → transfer.
//  4. Independent actions overlap; dependent ones order by operands.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"hstreams"
	"hstreams/internal/floatbits"
)

func main() {
	// A Haswell host plus one Knights Corner card (Fig. 2's testbed),
	// executing for real on goroutines.
	rt, err := hstreams.Init(hstreams.Config{
		Machine: hstreams.HSWPlusKNC(1),
		Mode:    hstreams.ModeReal,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Fini()

	fmt.Println("domains discovered:")
	for _, d := range rt.Domains() {
		spec := d.Spec()
		fmt.Printf("  %-8s %2d cores × %d threads, %6.0f GF/s peak\n",
			spec.Name, spec.Cores(), spec.ThreadsPerCore, spec.PeakGFlops())
	}

	// Kernels are registered by name; the sink looks them up — the
	// same source builds for any target (no device-specific dialect).
	rt.RegisterKernel("axpy", func(ctx *hstreams.KernelCtx) {
		x := floatbits.Float64s(ctx.Ops[0])
		y := floatbits.Float64s(ctx.Ops[1])
		a := float64(ctx.Args[0])
		for i := range y {
			y[i] += a * x[i]
		}
	})

	// One stream on the card, using 16 of its cores.
	card := rt.Card(0)
	s, err := rt.StreamCreate(card, 0, 16)
	if err != nil {
		log.Fatal(err)
	}

	const n = 1 << 16
	x, xs, err := rt.AllocFloat64("x", n)
	if err != nil {
		log.Fatal(err)
	}
	y, ys, err := rt.AllocFloat64("y", n)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < n; i++ {
		xs[i] = float64(i)
		ys[i] = 1
	}

	// Enqueue everything asynchronously; the FIFO semantic orders the
	// compute after the transfers it reads from (operand overlap) and
	// the read-back after the compute.
	if _, err := s.EnqueueXferAll(x, hstreams.ToSink); err != nil {
		log.Fatal(err)
	}
	if _, err := s.EnqueueXferAll(y, hstreams.ToSink); err != nil {
		log.Fatal(err)
	}
	ev, err := s.EnqueueCompute("axpy", []int64{3},
		[]hstreams.Operand{x.All(hstreams.In), y.All(hstreams.InOut)},
		hstreams.Cost{})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := s.EnqueueXferAll(y, hstreams.ToSource); err != nil {
		log.Fatal(err)
	}

	// The action handle doubles as an event.
	if err := ev.Wait(); err != nil {
		log.Fatal(err)
	}
	if err := s.Synchronize(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ny[10] = %v (want %v)\n", ys[10], 1+3*float64(10))
	fmt.Printf("y[%d] = %v (want %v)\n", n-1, ys[n-1], 1+3*float64(n-1))
	fmt.Println("\ntimeline (C compute, T transfer):")
	spans, err := rt.Spans()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(hstreams.Gantt(spans, 64))
}
