package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"hstreams/internal/metrics"
	"hstreams/internal/platform"
	"hstreams/internal/trace"
)

// tracedRuntime is simRuntime/realRuntime with a private flight
// recorder, so checkpoint tests never race other tests for the
// process-wide ring.
func tracedRuntime(t testing.TB, mode Mode, cards int) (*Runtime, *trace.FlightRecorder) {
	t.Helper()
	fl := trace.NewFlight(1 << 13)
	rt, err := Init(Config{
		Machine: platform.HSWPlusKNC(cards),
		Mode:    mode,
		Metrics: metrics.New(),
		Flight:  fl,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Fini)
	return rt, fl
}

// buildCkptDAG enqueues a small but shapeful DAG: transfers, computes
// with operand dependences, a marker, and a cross-stream event-wait —
// one action of every checkpoint kind and one dependence edge of every
// DepKind.
func buildCkptDAG(t testing.TB, rt *Runtime, kernel string) {
	t.Helper()
	card := rt.Card(0)
	s1, err := rt.StreamCreate(card, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := rt.StreamCreate(card, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, f, err := rt.AllocFloat64("b", 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f {
		f[i] = float64(i)
	}
	c, _, err := rt.AllocFloat64("c", 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.EnqueueXferAll(b, ToSink); err != nil {
		t.Fatal(err)
	}
	ev, err := s1.EnqueueCompute(kernel, []int64{2}, []Operand{b.All(InOut)}, simCost(256))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.EnqueueMarker(); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.EnqueueXferAll(c, ToSink); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.EnqueueEventWait(ev); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.EnqueueCompute(kernel, []int64{3}, []Operand{c.All(InOut)}, simCost(256)); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.EnqueueXferAll(c, ToSource); err != nil {
		t.Fatal(err)
	}
	rt.ThreadSynchronize()
}

// checkpointOf builds the DAG, drains it, and cuts its checkpoint.
func checkpointOf(t testing.TB, mode Mode) *Checkpoint {
	t.Helper()
	rt, _ := tracedRuntime(t, mode, 1)
	kernel := "k"
	if mode == ModeReal {
		registerTestKernels(rt)
		kernel = "scale"
	}
	buildCkptDAG(t, rt, kernel)
	ck, err := rt.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// assertReplayDeterministic replays the checkpoint twice and demands
// identical DAGs, makespans, and critical-path attribution — the
// PR's replay-determinism acceptance criterion.
func assertReplayDeterministic(t *testing.T, ck *Checkpoint) {
	t.Helper()
	r1, err := ck.Replay()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ck.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Actions != len(ck.Actions) || r2.Actions != len(ck.Actions) {
		t.Fatalf("replayed %d and %d actions, checkpoint has %d", r1.Actions, r2.Actions, len(ck.Actions))
	}
	if r1.Makespan != r2.Makespan {
		t.Fatalf("replay makespans differ: %v vs %v", r1.Makespan, r2.Makespan)
	}
	if r1.Report.CategorySum() != r2.Report.CategorySum() {
		t.Fatalf("replay category sums differ: %v vs %v", r1.Report.CategorySum(), r2.Report.CategorySum())
	}
	for cat, v := range r1.Report.Categories {
		if r2.Report.Categories[cat] != v {
			t.Fatalf("category %q differs across replays: %v vs %v", cat, v, r2.Report.Categories[cat])
		}
	}
}

func TestCheckpointReplayDeterministicSim(t *testing.T) {
	ck := checkpointOf(t, ModeSim)
	if len(ck.Streams) != 2 || len(ck.Actions) != 7 {
		t.Fatalf("checkpoint has %d streams, %d actions; want 2 and 7", len(ck.Streams), len(ck.Actions))
	}
	assertReplayDeterministic(t, ck)
}

// TestCheckpointReplayDeterministicReal cuts the checkpoint from a
// Real-mode run — real goroutine scheduling, real transfers — and
// replays it in Sim, where the DAG must still be edge-for-edge the
// one the Real run recorded.
func TestCheckpointReplayDeterministicReal(t *testing.T) {
	ck := checkpointOf(t, ModeReal)
	if ck.Mode != ModeReal.String() {
		t.Fatalf("checkpoint mode = %q, want %q", ck.Mode, ModeReal.String())
	}
	assertReplayDeterministic(t, ck)
}

// TestCheckpointRecordsEdgeKinds pins the serialized dependence-edge
// vocabulary: the DAG above must contain at least one fifo, one sync
// (marker), and one event (cross-stream wait) edge, each naming an
// earlier action.
func TestCheckpointRecordsEdgeKinds(t *testing.T) {
	ck := checkpointOf(t, ModeSim)
	seen := map[string]bool{}
	for i, ca := range ck.Actions {
		for _, d := range ca.Deps {
			if d.Pred < 0 || d.Pred >= i {
				t.Fatalf("action %d has non-backward dep on %d", i, d.Pred)
			}
			seen[d.Why] = true
		}
	}
	for _, why := range []string{"fifo", "sync", "event"} {
		if !seen[why] {
			t.Fatalf("no %q edge in checkpoint; saw %v", why, seen)
		}
	}
}

func TestCheckpointEncodeDecodeRoundTrip(t *testing.T) {
	ck := checkpointOf(t, ModeSim)
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Version != CheckpointVersion || dec.Run != ck.Run || dec.Mode != ck.Mode {
		t.Fatalf("decoded header = %+v, want version %d run %d mode %q", dec, CheckpointVersion, ck.Run, ck.Mode)
	}
	if len(dec.Streams) != len(ck.Streams) || len(dec.Actions) != len(ck.Actions) {
		t.Fatalf("decoded %d streams, %d actions; want %d, %d",
			len(dec.Streams), len(dec.Actions), len(ck.Streams), len(ck.Actions))
	}
	for i := range ck.Actions {
		a, b := ck.Actions[i], dec.Actions[i]
		if a.Kind != b.Kind || a.Stream != b.Stream || a.Bytes != b.Bytes || a.Cost != b.Cost || len(a.Deps) != len(b.Deps) {
			t.Fatalf("action %d did not round-trip: %+v vs %+v", i, a, b)
		}
	}
	// The decoded file replays like the in-memory checkpoint.
	assertReplayDeterministic(t, dec)
}

func TestCheckpointVersionMismatch(t *testing.T) {
	ck := checkpointOf(t, ModeSim)
	ck.Version = CheckpointVersion + 1
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(&buf); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("decoding future version: err = %v, want ErrCheckpointVersion", err)
	}
}

func TestCheckpointDecodeRejectsInvalid(t *testing.T) {
	ck := checkpointOf(t, ModeSim)
	ck.Actions[0].Deps = append(ck.Actions[0].Deps, CkptDep{Pred: len(ck.Actions), Why: "fifo"})
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(&buf); !errors.Is(err, ErrCheckpointInvalid) {
		t.Fatalf("decoding forward dep: err = %v, want ErrCheckpointInvalid", err)
	}
}

// TestCheckpointEvictedRun covers both eviction shapes — a run id the
// recorder never saw, and a ring too small to retain the whole run —
// and a run whose spans no runtime recorded.
func TestCheckpointEvictedRun(t *testing.T) {
	if _, err := CheckpointRun(trace.NewFlight(16), 12345); !errors.Is(err, ErrCheckpointEvicted) {
		t.Fatalf("unknown run: err = %v, want ErrCheckpointEvicted", err)
	}
	// Spans recorded by hand carry no geometry.
	recorded := trace.NewFlight(16)
	recorded.Record(&trace.Span{ID: 1, Run: 12345, Kind: trace.Sync, Stream: "HSW.s0", Domain: "HSW"})
	if _, err := CheckpointRun(recorded, 12345); !errors.Is(err, ErrCheckpointInvalid) {
		t.Fatalf("run with no runtime: err = %v, want ErrCheckpointInvalid", err)
	}

	fl := trace.NewFlight(4) // far smaller than the DAG below
	rt, err := Init(Config{
		Machine: platform.HSWPlusKNC(1),
		Mode:    ModeSim,
		Metrics: metrics.New(),
		Flight:  fl,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Fini)
	buildCkptDAG(t, rt, "k")
	if _, err := rt.Checkpoint(); !errors.Is(err, ErrCheckpointEvicted) {
		t.Fatalf("partially evicted run: err = %v, want ErrCheckpointEvicted", err)
	}
}

// TestStreamChurnDropsGeometry: a long-lived Real runtime that creates
// and destroys streams, as serve does per tenant, keeps no stream list
// in its checkpoint geometry once its run is longer than its recorder
// (no checkpoint of it can be whole), and an untraced runtime keeps no
// geometry at all.
func TestStreamChurnDropsGeometry(t *testing.T) {
	geomStreams := func(rt *Runtime) int {
		rt.geom.mu.Lock()
		defer rt.geom.mu.Unlock()
		return len(rt.geom.streams)
	}
	rt, err := Init(Config{
		Machine: platform.HSWPlusKNC(0),
		Mode:    ModeReal,
		Metrics: metrics.New(),
		Flight:  trace.NewFlight(16),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Fini)
	s, err := rt.StreamCreate(rt.Host(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := geomStreams(rt); n != 1 {
		t.Fatalf("geometry holds %d streams after one StreamCreate, want 1", n)
	}
	for range 17 {
		if _, err := s.EnqueueMarker(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Synchronize(); err != nil {
		t.Fatal(err)
	}
	for range 300 {
		st, err := rt.StreamCreate(rt.Host(), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Destroy(); err != nil {
			t.Fatal(err)
		}
	}
	if n := geomStreams(rt); n != 0 {
		t.Fatalf("17 actions on a 16-span recorder, then 300 stream create/destroy pairs: geometry still holds %d streams", n)
	}
	if _, err := rt.Checkpoint(); !errors.Is(err, ErrCheckpointEvicted) {
		t.Fatalf("checkpoint of an evicted run: err = %v, want ErrCheckpointEvicted", err)
	}

	untraced, err := Init(Config{
		Machine:            platform.HSWPlusKNC(0),
		Mode:               ModeReal,
		Metrics:            metrics.New(),
		DisableCausalTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(untraced.Fini)
	if _, err := untraced.StreamCreate(untraced.Host(), 0, 1); err != nil {
		t.Fatal(err)
	}
	if untraced.geom != nil {
		t.Fatal("untraced runtime keeps a checkpoint geometry")
	}
}

// TestCheckpointOutlivesManyRuns: a run's geometry lives as long as its
// spans, however many runtimes come after it. 300 small traced Sim
// runtimes share one recorder that holds all of their spans; the first
// run, long finalized, still checkpoints whole — including its idle
// first stream, which enqueued nothing but names the streams after it
// — and replays.
func TestCheckpointOutlivesManyRuns(t *testing.T) {
	fl := trace.NewFlight(1024)
	var first uint64
	for i := range 300 {
		rt, err := Init(Config{
			Machine: platform.HSWPlusKNC(1),
			Mode:    ModeSim,
			Metrics: metrics.New(),
			Flight:  fl,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = rt.RunID()
		}
		if _, err := rt.StreamCreate(rt.Card(0), 0, 1); err != nil {
			t.Fatal(err)
		}
		s, err := rt.StreamCreate(rt.Card(0), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.EnqueueMarker(); err != nil {
			t.Fatal(err)
		}
		rt.Fini()
	}
	if total := fl.Total(); total > uint64(fl.Cap()) {
		t.Fatalf("recorder overflowed (%d spans, cap %d); the test needs all runs retained", total, fl.Cap())
	}
	c, err := CheckpointRun(fl, first)
	if err != nil {
		t.Fatalf("checkpoint of the first of 300 runs: %v", err)
	}
	if len(c.Streams) != 2 || len(c.Actions) != 1 || c.Actions[0].Stream != 1 {
		t.Fatalf("checkpoint has %d streams and %d actions (first on stream %d), want 2, 1 on stream 1",
			len(c.Streams), len(c.Actions), c.Actions[0].Stream)
	}
	if _, err := c.Replay(); err != nil {
		t.Fatalf("replaying the first run: %v", err)
	}
}

// nilCardCheckpoint is a checkpoint whose machine lists a card with no
// spec; Replay used to dereference it.
const nilCardCheckpoint = `{"version":2,"machine":{"Host":{"Name":"HSW","Sockets":1,"CoresPerSocket":4},"Cards":[null]},"streams":[{"name":"HSW.s0","domain":0,"first_core":0,"n_cores":1}],"actions":[{"kind":"sync","stream":0}]}`

func TestCheckpointDecodeRejectsMissingSpecs(t *testing.T) {
	for name, raw := range map[string]string{
		"nil card":      nilCardCheckpoint,
		"card, no link": `{"version":2,"machine":{"Host":{"Name":"HSW"},"Cards":[{"Name":"KNC0"}]}}`,
		"nil host":      `{"version":2,"machine":{"Cards":[{"Name":"KNC0"}]}}`,
	} {
		if _, err := DecodeCheckpoint(strings.NewReader(raw)); !errors.Is(err, ErrCheckpointInvalid) {
			t.Errorf("%s: err = %v, want ErrCheckpointInvalid", name, err)
		}
	}
}

// FuzzDecodeCheckpoint holds the checkpoint decoder and Replay, which
// hsbench -replay runs on a file from disk, to three properties: no
// input panics the decoder; whatever it accepts re-encodes to a
// checkpoint that decodes and encodes back to the same bytes; and an
// accepted checkpoint of at most 32 actions replays or returns an
// error, never panics.
func FuzzDecodeCheckpoint(f *testing.F) {
	var good bytes.Buffer
	if err := checkpointOf(f, ModeSim).Encode(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte(nilCardCheckpoint))
	f.Add([]byte(`{"version":2,"machine":{"Host":{"Name":"HSW","Sockets":1,"CoresPerSocket":2,"ClockGHz":1,"DPFlopsPerCycle":1}},"streams":[{"name":"HSW.s0","domain":0,"first_core":0,"n_cores":2}],"actions":[{"kind":"compute","stream":0,"cost":{"Flops":-1e300,"Extra":-5}},{"kind":"sync","stream":0,"deps":[{"pred":0,"why":"fifo"}]}]}`))
	f.Add([]byte(`{"version":3}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := DecodeCheckpoint(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := c.Encode(&enc); err != nil {
			t.Fatalf("accepted checkpoint does not encode: %v", err)
		}
		again, err := DecodeCheckpoint(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v\n%s", err, enc.Bytes())
		}
		var enc2 bytes.Buffer
		if err := again.Encode(&enc2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
			t.Fatalf("checkpoint changed across a round trip:\n%s\nvs\n%s", enc.Bytes(), enc2.Bytes())
		}
		if len(c.Actions) <= 32 {
			_, _ = c.Replay() // an error is fine; a panic fails the target
		}
	})
}
