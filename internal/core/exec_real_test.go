package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hstreams/internal/platform"
)

// gateKernels registers "nop" and "gate", a kernel that blocks until
// the returned function is called (at most once; cleanup calls it too).
func gateKernels(t *testing.T, rt *Runtime) (open func()) {
	ch := make(chan struct{})
	var once atomic.Bool
	open = func() {
		if once.CompareAndSwap(false, true) {
			close(ch)
		}
	}
	t.Cleanup(open)
	rt.RegisterKernel("gate", func(*KernelCtx) { <-ch })
	rt.RegisterKernel("nop", func(*KernelCtx) {})
	return open
}

// TestBusyStreamDoesNotStarveDomain: one stream holds more ready
// independent computes than its domain has pool workers, behind a
// compute that blocks. A compute on a second stream of the same domain
// must still run: the queued computes wait on their stream's resource,
// not in a pool worker each.
func TestBusyStreamDoesNotStarveDomain(t *testing.T) {
	for _, card := range []bool{false, true} {
		name := "host"
		if card {
			name = "card"
		}
		t.Run(name, func(t *testing.T) {
			rt := realRuntime(t, 1)
			open := gateKernels(t, rt)
			d := rt.Host()
			if card {
				d = rt.Card(0)
			}
			busy, err := rt.StreamCreate(d, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			other, err := rt.StreamCreate(d, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := busy.EnqueueCompute("gate", nil, nil, platform.Cost{}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < poolWorkers(d.Spec().Cores())+8; i++ {
				if _, err := busy.EnqueueCompute("nop", nil, nil, platform.Cost{}); err != nil {
					t.Fatal(err)
				}
			}
			a, err := other.EnqueueCompute("nop", nil, nil, platform.Cost{})
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-a.Done():
			case <-time.After(2 * time.Second):
				t.Errorf("%s: a compute on another stream did not run while a blocked stream held its ready computes", d.Spec().Name)
			}
			open()
			if err := rt.Err(); err != nil {
				t.Fatal(err)
			}
			rt.ThreadSynchronize()
		})
	}
}

// TestComputeResourceSerializes: however many independent computes are
// ready on a compute resource, at most one runs at a time, and each
// runs exactly once — on a host stream, a card stream, and two host
// streams that StreamCreateOn maps onto one resource. A gate compute
// holds each resource until all its computes are enqueued, so they
// all wait on it at once.
func TestComputeResourceSerializes(t *testing.T) {
	const perRes = 300
	rt := realRuntime(t, 1)
	open := gateKernels(t, rt)
	var running, peak [3]atomic.Int32
	var runs [3][perRes]atomic.Int32
	rt.RegisterKernel("count", func(ctx *KernelCtx) {
		r, i := ctx.Args[0], ctx.Args[1]
		n := running[r].Add(1)
		for {
			p := peak[r].Load()
			if n <= p || peak[r].CompareAndSwap(p, n) {
				break
			}
		}
		runs[r][i].Add(1)
		time.Sleep(time.Microsecond)
		running[r].Add(-1)
	})

	host, err := rt.StreamCreate(rt.Host(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	card, err := rt.StreamCreate(rt.Card(0), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	shareA, err := rt.StreamCreate(rt.Host(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	shareB, err := rt.StreamCreateOn(rt.Host(), 2, 2, shareA)
	if err != nil {
		t.Fatal(err)
	}
	res := [3][]*Stream{{host}, {card}, {shareA, shareB}}
	for _, ss := range res {
		if _, err := ss[0].EnqueueCompute("gate", nil, nil, platform.Cost{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < perRes; i++ {
		for r, ss := range res {
			s := ss[i%len(ss)]
			if _, err := s.EnqueueCompute("count", []int64{int64(r), int64(i)}, nil, platform.Cost{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	open()
	rt.ThreadSynchronize()
	if err := rt.Err(); err != nil {
		t.Fatal(err)
	}
	names := [3]string{"host stream", "card stream", "shared host streams"}
	for r := range res {
		if p := peak[r].Load(); p != 1 {
			t.Errorf("%s: %d computes ran at once, want 1", names[r], p)
		}
		for i := range runs[r] {
			if n := runs[r][i].Load(); n != 1 {
				t.Errorf("%s: compute %d ran %d times, want 1", names[r], i, n)
			}
		}
	}
}

// BenchmarkRealIndependentComputes enqueues b.N computes in the shape
// of bench's sched_real workload on one Real runtime: 8 host streams
// of 2 cores each, driven by 2 source goroutines round-robin over 4
// streams apiece, each compute bumping one of 64 tiles (C inout, A and
// B in, so computes on different tiles are independent) and a marker
// every 512 computes per stream. It reports ns per compute from the
// first enqueue to ThreadSynchronize's return; with -mutexprofile it
// shows where workers and sources wait on locks:
//
//	go test -run '^$' -bench RealIndependentComputes -mutexprofile m.out ./internal/core
func BenchmarkRealIndependentComputes(b *testing.B) {
	const streams, sources, tiles, tileBytes, markerEvery = 8, 2, 64, 256, 512
	rt, err := Init(Config{Machine: platform.HSWPlusKNC(0), Mode: ModeReal})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Fini()
	rt.RegisterKernel("bump", func(ctx *KernelCtx) {
		p := ctx.Ops[0][:8]
		binary.LittleEndian.PutUint64(p, binary.LittleEndian.Uint64(p)+1)
	})
	type tiled struct {
		s        *Stream
		a, bb, c *Buf
	}
	ts := make([]tiled, streams)
	for i := range ts {
		s, err := rt.StreamCreate(rt.Host(), 2*i, 2)
		if err != nil {
			b.Fatal(err)
		}
		ts[i].s = s
		for j, p := range []**Buf{&ts[i].a, &ts[i].bb, &ts[i].c} {
			if *p, err = rt.Alloc1D(fmt.Sprintf("%c%d", "abc"[j], i), tiles*tileBytes); err != nil {
				b.Fatal(err)
			}
		}
	}
	per := streams / sources
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < sources; g++ {
		wg.Add(1)
		go func(mine []tiled, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				st := mine[i%per]
				k := i / per
				t := int64(k%tiles) * tileBytes
				ops := []Operand{st.c.Range(t, tileBytes, InOut), st.a.Range(t, tileBytes, In), st.bb.Range(t, tileBytes, In)}
				if _, err := st.s.EnqueueCompute("bump", nil, ops, platform.Cost{}); err != nil {
					b.Error(err)
					return
				}
				if (k+1)%markerEvery == 0 {
					if _, err := st.s.EnqueueMarker(); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}(ts[g*per:(g+1)*per], (b.N+sources-1-g)/sources)
	}
	wg.Wait()
	rt.ThreadSynchronize()
	b.StopTimer()
	if err := rt.Err(); err != nil {
		b.Fatal(err)
	}
}
