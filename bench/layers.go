package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hstreams/internal/coi"
	"hstreams/internal/core"
	"hstreams/internal/fabric"
	"hstreams/internal/health"
	"hstreams/internal/metrics"
	"hstreams/internal/platform"
	"hstreams/internal/serve"
	"hstreams/internal/timesim"
	"hstreams/internal/trace"
)

// layerProbes runs the standalone probes: each calls one layer's
// public functions directly, with nothing else running, and writes
// its per-layer metrics into values. They belong to no workload and
// run once in every traced pass.
func layerProbes(seed int64, scale int, values map[string]float64) error {
	for _, probe := range []func(int64, int, map[string]float64) error{
		probeFabric, probeCOI, probeTimesim, probeTrace, probeMetrics, probeJournal,
		probeDepIndex, probeLifecycle, probeServeSubmit,
	} {
		if err := probe(seed, scale, values); err != nil {
			return err
		}
	}
	return nil
}

// perCall times n calls of fn and returns the mean in nanoseconds.
func perCall(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// mbPerS converts bytes moved per call and nanoseconds per call to
// MB/s.
func mbPerS(bytes int, ns float64) float64 {
	return float64(bytes) / 1e6 / (ns / 1e9)
}

// hostAndCard builds a standalone fabric of a host and one card.
func hostAndCard() (f *fabric.Fabric, host, card *fabric.Node, err error) {
	f = fabric.New()
	host, card = f.AddNode("host"), f.AddNode("knc0")
	_, err = f.Connect(host, card, platform.PCIe())
	return f, host, card, err
}

func probeFabric(seed int64, scale int, values map[string]float64) error {
	f, host, card, err := hostAndCard()
	if err != nil {
		return err
	}
	win := fabric.Register(card, 1<<20)
	src := make([]byte, 1<<20)
	var dmaErr error
	dma := func(n, reps int) float64 {
		return perCall(reps, func(int) {
			if _, err := win.DMAWrite(f, host, 0, src[:n]); err != nil {
				dmaErr = err
			}
		})
	}
	values["fabric.dma_write_16k_mb_s"] = mbPerS(16<<10, dma(16<<10, 20000/scale))
	values["fabric.dma_write_1m_mb_s"] = mbPerS(1<<20, dma(1<<20, 500/scale))
	values["fabric.dma_first_byte_ns"] = dma(8, 200000/scale)
	if dmaErr != nil {
		return fmt.Errorf("fabric probe: %w", dmaErr)
	}

	// One message there and one back, the peer echoing.
	a, b, err := fabric.ConnectPair(f, host, card)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			msg, err := b.Recv()
			if err != nil {
				return // closed: the probe is over
			}
			if _, err := b.Send(msg); err != nil {
				return
			}
		}
	}()
	msg := make([]byte, 64)
	var msgErr error
	rtt := perCall(20000/scale, func(int) {
		if _, err := a.Send(msg); err != nil {
			msgErr = err
		}
		if _, err := a.Recv(); err != nil {
			msgErr = err
		}
	})
	a.Close()
	b.Close()
	wg.Wait()
	if msgErr != nil {
		return fmt.Errorf("fabric probe: %w", msgErr)
	}
	values["fabric.endpoint_msg_rtt_us"] = rtt / 1e3

	// Address-space churn with 1024 ranges live: free a seeded
	// quarter of them, allocate as many of seeded sizes, repeat.
	const live, batch = 1024, 256
	rounds := 200 / scale
	type rng struct{ base, size uint64 }
	r := rand.New(rand.NewSource(seed))
	as := fabric.NewAddrSpace(64)
	size := func() uint64 { return uint64(64 + r.Intn(256<<10)) }
	ranges := make([]rng, live)
	for i := range ranges {
		s := size()
		ranges[i] = rng{as.Alloc(s), s}
	}
	var allocT, freeT time.Duration
	for round := 0; round < rounds; round++ {
		r.Shuffle(live, func(i, j int) { ranges[i], ranges[j] = ranges[j], ranges[i] })
		sizes := make([]uint64, batch)
		for i := range sizes {
			sizes[i] = size()
		}
		t0 := time.Now()
		for _, x := range ranges[:batch] {
			as.Free(x.base, x.size)
		}
		t1 := time.Now()
		for i, s := range sizes {
			ranges[i] = rng{as.Alloc(s), s}
		}
		freeT += t1.Sub(t0)
		allocT += time.Since(t1)
	}
	values["fabric.addrspace_alloc_ns"] = float64(allocT) / float64(batch*rounds)
	values["fabric.addrspace_free_ns"] = float64(freeT) / float64(batch*rounds)
	return nil
}

func probeCOI(_ int64, scale int, values map[string]float64) error {
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, pooled := range []bool{true, false} {
		f, host, card, err := hostAndCard()
		if err != nil {
			return err
		}
		p, err := coi.CreateProcess(f, host, card, coi.Options{PoolBuffers: pooled})
		if err != nil {
			return err
		}
		// Creation alone is timed; destroying the buffer between
		// calls is what lets the pool hit.
		var createT time.Duration
		creates := 5000 / scale
		for i := 0; i < creates; i++ {
			t0 := time.Now()
			b, err := p.CreateBuffer(16 << 10)
			createT += time.Since(t0)
			if err != nil {
				p.Destroy()
				return fmt.Errorf("coi probe: %w", err)
			}
			b.Destroy()
		}
		if !pooled {
			values["coi.create_buffer_miss_us"] = float64(createT) / float64(creates) / 1e3
			p.Destroy()
			continue
		}
		values["coi.create_buffer_hit_us"] = float64(createT) / float64(creates) / 1e3

		p.RegisterFunction("empty", func([]int64, [][]byte) {})
		pl, err := p.CreatePipeline()
		if err != nil {
			p.Destroy()
			return err
		}
		buf, err := p.CreateBuffer(16 << 10)
		if err != nil {
			p.Destroy()
			return err
		}
		values["coi.runfn_rtt_us"] = perCall(10000/scale, func(int) {
			ev, err := pl.RunFunction("empty", nil, buf)
			note(err)
			if err == nil {
				note(ev.Wait())
			}
		}) / 1e3
		data := make([]byte, 16<<10)
		values["coi.buf_write_16k_mb_s"] = mbPerS(len(data), perCall(20000/scale, func(int) {
			_, err := buf.Write(0, data)
			note(err)
		}))
		values["coi.buf_read_16k_mb_s"] = mbPerS(len(data), perCall(20000/scale, func(int) {
			_, err := buf.Read(0, data)
			note(err)
		}))
		p.Destroy()
	}
	if firstErr != nil {
		return fmt.Errorf("coi probe: %w", firstErr)
	}
	return nil
}

func probeTimesim(_ int64, scale int, values map[string]float64) error {
	events := 1_000_000 / scale
	eng := timesim.NewEngine()
	fired := 0
	t0 := time.Now()
	for i := 0; i < events; i++ {
		eng.At(time.Duration(i), func() { fired++ })
	}
	eng.Drain()
	values["timesim.events_per_s"] = float64(events) / time.Since(t0).Seconds()
	if fired != events {
		return fmt.Errorf("timesim probe: %d of %d events fired", fired, events)
	}
	return nil
}

func probeTrace(_ int64, scale int, values map[string]float64) error {
	records := 1_000_000 / scale
	spans := make([]trace.Span, 1024) // Record keeps the pointer; reuse a ring's worth
	fr := trace.NewFlight(len(spans))
	values["trace.record_ns"] = perCall(records, func(i int) { fr.Record(&spans[i%len(spans)]) })

	// Two goroutines record into one ring; the figure is what each of
	// them waits per call.
	fr = trace.NewFlight(len(spans))
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < records/2; i++ {
				fr.Record(&spans[(i*2+g)%len(spans)])
			}
		}()
	}
	wg.Wait()
	values["trace.record_contended_ns"] = float64(time.Since(t0)) / float64(records/2)
	if fr.Total() != uint64(records) {
		return fmt.Errorf("trace probe: recorder counts %d of %d records", fr.Total(), records)
	}
	return nil
}

func probeMetrics(_ int64, scale int, values map[string]float64) error {
	reg := metrics.New()
	c := reg.Counter("bench_probe_total", "probe")
	h := reg.Histogram("bench_probe_seconds", "probe", nil)
	n := 5_000_000 / scale
	values["metrics.counter_inc_ns"] = perCall(n, func(int) { c.Inc() })
	values["metrics.histogram_observe_ns"] = perCall(n, func(i int) { h.Observe(time.Duration(i&1023) * time.Microsecond) })
	if c.Value() != int64(n) || h.Count() != int64(n) {
		return fmt.Errorf("metrics probe: counter %d, histogram %d, want %d", c.Value(), h.Count(), n)
	}
	return nil
}

func probeJournal(_ int64, scale int, values map[string]float64) error {
	n := 1_000_000 / scale
	j := health.NewJournal(0, metrics.New())
	ev := health.Event{When: time.Now(), Detail: "probe"}
	values["health.journal_record_ns"] = perCall(n, func(int) { j.Record(ev) })
	if j.Total() != uint64(n) {
		return fmt.Errorf("health probe: journal counts %d of %d events", j.Total(), n)
	}
	return nil
}

// probeDepIndex times enqueues that can only insert into the
// dependence index and scan it: the stream's first action is a kernel
// parked on a channel and overlaps everything behind it, so nothing
// launches until the probe lets it go (the gate of depindex_test.go).
func probeDepIndex(seed int64, scale int, values map[string]float64) error {
	rt, err := core.Init(core.Config{
		Machine: platform.HSWPlusKNC(0),
		Mode:    core.ModeReal,
		Metrics: metrics.New(),
		Flight:  trace.NewFlight(0),
	})
	if err != nil {
		return err
	}
	defer rt.Fini()
	release := make(chan struct{})
	rt.RegisterKernel("gate", func(*core.KernelCtx) { <-release })
	rt.RegisterKernel("nop", func(*core.KernelCtx) {})
	s, err := rt.StreamCreate(rt.Host(), 0, 2)
	if err != nil {
		close(release)
		return err
	}
	var bufs [3]*core.Buf
	for i := range bufs {
		if bufs[i], err = rt.Alloc1D(fmt.Sprintf("dep%d", i), schedTiles*schedTileBytes); err != nil {
			close(release)
			return err
		}
	}
	gateOps := []core.Operand{bufs[0].All(core.InOut), bufs[1].All(core.InOut), bufs[2].All(core.InOut)}
	if _, err := s.EnqueueCompute("gate", nil, gateOps, platform.Cost{}); err != nil {
		close(release)
		return err
	}
	perm := tilePerms(seed, 1)[0]
	n := 8192 / scale
	var enqErr error
	per := perCall(n, func(i int) {
		t := int64(perm[i%schedTiles]) * schedTileBytes
		ops := []core.Operand{
			bufs[2].Range(t, schedTileBytes, core.InOut),
			bufs[0].Range(t, schedTileBytes, core.In),
			bufs[1].Range(t, schedTileBytes, core.In),
		}
		if _, err := s.EnqueueCompute("nop", nil, ops, platform.Cost{}); err != nil {
			enqErr = err
		}
	})
	close(release)
	rt.ThreadSynchronize()
	if enqErr != nil {
		return fmt.Errorf("depindex probe: %w", enqErr)
	}
	values["core.depindex_insert_ns"] = per
	return rt.Err()
}

// probeLifecycle times bringing the offload machine up, creating its
// streams and shutting it down: what setup_s is made of.
func probeLifecycle(_ int64, scale int, values map[string]float64) error {
	const reps, streams = 5, 16
	var initMS, finiMS, createUS []float64
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		rt, err := core.Init(core.Config{
			Machine: platform.HSWPlusKNC(2),
			Mode:    core.ModeReal,
			Metrics: metrics.New(),
			Flight:  trace.NewFlight(0),
		})
		if err != nil {
			return err
		}
		initMS = append(initMS, float64(time.Since(t0))/1e6)
		var createErr error
		per := perCall(streams, func(i int) {
			if _, err := rt.StreamCreate(rt.Card(i%2), 2*(i/2), 2); err != nil {
				createErr = err
			}
		})
		createUS = append(createUS, per/1e3)
		t0 = time.Now()
		rt.Fini()
		finiMS = append(finiMS, float64(time.Since(t0))/1e6)
		if createErr != nil {
			return fmt.Errorf("lifecycle probe: %w", createErr)
		}
	}
	values["core.init_ms"] = newDist(initMS).q(0.5)
	values["core.fini_ms"] = newDist(finiMS).q(0.5)
	values["core.stream_create_us"] = newDist(createUS).q(0.5)
	return nil
}

// probeServeSubmit times Server.Submit without HTTP: on a shadow
// server (admission and dispatcher hand-off only) and on a Real
// runtime with an empty kernel (plus enqueue, dispatch, retire).
func probeServeSubmit(_ int64, scale int, values map[string]float64) error {
	n := 20000 / scale
	ctx := context.Background()
	for _, shadow := range []bool{true, false} {
		opt := serve.Options{Registry: metrics.New(), Shadow: shadow}
		var rt *core.Runtime
		if !shadow {
			var err error
			rt, err = core.Init(core.Config{
				Machine: platform.HSWPlusKNC(0),
				Mode:    core.ModeReal,
				Metrics: metrics.New(),
				Flight:  trace.NewFlight(0),
			})
			if err != nil {
				return err
			}
			rt.RegisterKernel("nop", func(*core.KernelCtx) {})
			opt.Runtime = rt
		}
		srv, err := serve.New(opt)
		if err == nil {
			_, err = srv.Register("probe", serve.Quotas{Weight: 1})
		}
		if err != nil {
			if rt != nil {
				rt.Fini()
			}
			return fmt.Errorf("serve probe: %w", err)
		}
		var subErr error
		per := perCall(n, func(int) {
			a, err := srv.Submit(ctx, "probe", serve.SubmitRequest{Kernel: "nop"})
			if err == nil && a != nil {
				err = a.Wait()
			}
			if err != nil {
				subErr = err
			}
		})
		err = srv.Close()
		if rt != nil {
			rt.Fini()
		}
		if subErr != nil || err != nil {
			return fmt.Errorf("serve probe: submit %v, close %v", subErr, err)
		}
		name := "serve.submit_real_us"
		if shadow {
			name = "serve.submit_shadow_us"
		}
		values[name] = per / 1e3
	}
	return nil
}
