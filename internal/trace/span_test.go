package trace

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func span(id uint64, deps ...Dep) *Span {
	return &Span{ID: id, Run: 1, Stream: "s0", Deps: deps}
}

func TestFlightRecordSnapshot(t *testing.T) {
	f := NewFlight(4)
	for i := uint64(1); i <= 3; i++ {
		f.Record(span(i))
	}
	got := f.Snapshot()
	if len(got) != 3 {
		t.Fatalf("Snapshot len = %d, want 3", len(got))
	}
	for i, s := range got {
		if s.ID != uint64(i+1) {
			t.Fatalf("Snapshot[%d].ID = %d, want %d (oldest first)", i, s.ID, i+1)
		}
	}
	if f.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", f.Dropped())
	}
}

func TestFlightWrapsKeepingNewest(t *testing.T) {
	f := NewFlight(4)
	for i := uint64(1); i <= 10; i++ {
		f.Record(span(i))
	}
	got := f.Snapshot()
	if len(got) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(got))
	}
	for i, s := range got {
		if s.ID != uint64(i+7) {
			t.Fatalf("Snapshot[%d].ID = %d, want %d", i, s.ID, i+7)
		}
	}
	if f.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", f.Dropped())
	}
	if f.Total() != 10 {
		t.Fatalf("Total = %d, want 10", f.Total())
	}
	f.Reset()
	if n := len(f.Snapshot()); n != 0 {
		t.Fatalf("post-Reset Snapshot len = %d, want 0", n)
	}
}

func TestFlightNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record(span(1)) // must not panic
	if f.Snapshot() != nil || f.Cap() != 0 || f.Total() != 0 || f.Dropped() != 0 {
		t.Fatal("nil recorder must be inert")
	}
	f.Reset()
}

func TestFlightCapacityRounding(t *testing.T) {
	if got := NewFlight(5).Cap(); got != 8 {
		t.Fatalf("Cap = %d, want 8", got)
	}
	if got := NewFlight(0).Cap(); got != defaultFlightCap {
		t.Fatalf("default Cap = %d, want %d", got, defaultFlightCap)
	}
}

// TestFlightConcurrentRecord exercises the ring from many
// goroutines; run under -race this is the "stays on in production"
// safety check.
func TestFlightConcurrentRecord(t *testing.T) {
	f := NewFlight(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f.Record(span(uint64(g*1000 + i)))
				if i%50 == 0 {
					f.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if f.Total() != 1600 {
		t.Fatalf("Total = %d, want 1600", f.Total())
	}
	if n := len(f.Snapshot()); n != 64 {
		t.Fatalf("Snapshot len = %d, want 64", n)
	}
}

// derivedSpan builds a span whose every field is a function of id, so
// a torn or mixed-up record shows as a mismatch. Its dep count (0–5)
// and retries cross the record's inline/overflow boundary.
func derivedSpan(id uint64) Span {
	streams := [...]string{"s0", "s1", "KNC0.s2"}
	sp := Span{
		ID: id, Run: id%2 + 1, Kind: Kind(id % 3), Stream: streams[id%3], Domain: "HSW",
		Label: streams[(id/3)%3] + " op", Bytes: int64(id), Flops: float64(id) / 2,
		Err: id%5 == 0, DeadlineHit: id%7 == 0, Rerouted: id%11 == 0,
		Enqueue: time.Duration(id), Ready: time.Duration(id + 1),
		Launch: time.Duration(id + 2), Finish: time.Duration(id + 3),
		Retries: int(id % 3), RetryWait: time.Duration(id%3) * time.Millisecond,
		CostKernel: int(id % 9), CostN: int(id), CostBytes: float64(id) * 3, CostExtra: time.Duration(id % 13),
	}
	if sp.Stream == "KNC0.s2" {
		sp.Domain, sp.Src, sp.Dst = "KNC0", "HSW", "KNC0"
	}
	for j := range id % 6 {
		sp.Deps = append(sp.Deps, Dep{ID: id - j - 1, Why: DepKind(j % 3)})
	}
	return sp
}

// TestFlightLapping: eight writers lap a ring of eight while
// snapshotters read it. Every span a snapshot returns must be whole —
// each field the one its ID derives — and the final ring holds exactly
// the newest record of each entry, however the writers interleaved.
// Run it under -race: records are immutable once published, and a
// writer lapped before it stores drops its record.
func TestFlightLapping(t *testing.T) {
	const writers, perWriter = 8, 2000
	f := NewFlight(8)
	var wg sync.WaitGroup
	done := make(chan struct{})
	check := func(spans []Span) { checkWhole(t, f, spans) }
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					check(f.Snapshot())
				}
			}
		}()
	}
	var writes sync.WaitGroup
	for g := range uint64(writers) {
		writes.Add(1)
		go func() {
			defer writes.Done()
			for i := range uint64(perWriter) {
				sp := derivedSpan(g<<32 | i)
				f.Record(&sp)
			}
		}()
	}
	writes.Wait()
	close(done)
	wg.Wait()
	final := f.Snapshot()
	check(final)
	if f.Total() != writers*perWriter || len(final) != f.Cap() {
		t.Fatalf("Total %d, final snapshot %d spans; want %d and %d", f.Total(), len(final), writers*perWriter, f.Cap())
	}
}

// checkWhole fails t unless spans fit the ring and each is whole: every
// field the one derivedSpan gives its ID.
func checkWhole(t *testing.T, f *FlightRecorder, spans []Span) {
	if len(spans) > f.Cap() {
		t.Errorf("snapshot of %d spans from a ring of %d", len(spans), f.Cap())
	}
	for _, sp := range spans {
		if want := derivedSpan(sp.ID); !reflect.DeepEqual(sp, want) {
			t.Errorf("torn span:\n got %+v\nwant %+v", sp, want)
			return
		}
	}
}

// TestFlightResetDuringSnapshot: Reset races writers and snapshotters
// on a ring of eight. A snapshot must never take a floor that Reset
// raised past its own view of the position counter (a negative span
// count), and every span it returns must be whole. Run it under -race.
func TestFlightResetDuringSnapshot(t *testing.T) {
	f := NewFlight(8)
	var wg sync.WaitGroup
	done := make(chan struct{})
	loop := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					fn()
				}
			}
		}()
	}
	loop(f.Reset)
	for range 2 {
		loop(func() { checkWhole(t, f, f.Snapshot()) })
	}
	var writes sync.WaitGroup
	for g := range uint64(4) {
		writes.Add(1)
		go func() {
			defer writes.Done()
			for i := range uint64(5000) {
				sp := derivedSpan(g<<32 | i)
				f.Record(&sp)
			}
		}()
	}
	writes.Wait()
	close(done)
	wg.Wait()
	if f.Total() != 4*5000 {
		t.Fatalf("Total %d, want %d", f.Total(), 4*5000)
	}
}

// FuzzFlightRecorder runs a sequence of Record / Snapshot / Reset on a
// small ring against a by-value model of the spans recorded since the
// last Reset, of which the ring must return the newest Cap(). The
// fuzzed spans vary label length, carry 0–40 deps, retries, errors,
// deadline and re-route flags, and switch identity, so they cross
// every inline/overflow boundary of a record. After each Record the
// caller's deps are scribbled over: the ring must hold copies.
func FuzzFlightRecorder(f *testing.F) {
	f.Add([]byte{2})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 3, 5, 1, 0, 40, 200, 255, 7, 2, 0, 0, 0, 0})
	f.Add([]byte{3, 0, 4, 0, 0, 1, 1, 4, 4, 4, 3, 0, 0, 0, 0, 0, 9, 9, 9, 9, 2, 1, 1, 1, 1})
	f.Add([]byte{0, 0, 1, 2, 3, 4, 0, 5, 6, 7, 8, 2, 0, 0, 0, 0, 3, 0, 0, 0, 0, 2, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		fr := NewFlight(1 << (ops[0] % 5))
		var model []Span
		var id uint64
		for i := 1; i+4 < len(ops); i += 5 {
			b := ops[i+1 : i+5]
			switch ops[i] % 4 {
			case 0, 1:
				id++
				sp := fuzzSpan(id, b)
				want := sp
				want.Deps = append([]Dep(nil), sp.Deps...)
				if len(want.Deps) == 0 {
					want.Deps = nil
				}
				fr.Record(&sp)
				for j := range sp.Deps {
					sp.Deps[j] = Dep{}
				}
				model = append(model, want)
			case 2:
				want := model[max(0, len(model)-fr.Cap()):]
				got := fr.Snapshot()
				if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("op %d: snapshot of %d spans differs from the model's %d:\n got %+v\nwant %+v",
						i, len(got), len(want), got, want)
				}
			case 3:
				fr.Reset()
				model = model[:0]
			}
			if fr.Total() != id || fr.Dropped() != uint64(max(0, int(id)-fr.Cap())) {
				t.Fatalf("op %d: Total %d Dropped %d after %d records into a ring of %d", i, fr.Total(), fr.Dropped(), id, fr.Cap())
			}
		}
	})
}

// fuzzSpan derives span id's fields from four fuzz bytes.
func fuzzSpan(id uint64, b []byte) Span {
	streams := [...]string{"s0", "s1", "KNC0.s2"}
	sp := Span{
		ID: id, Run: uint64(b[1]%2) + 1, Kind: Kind(b[1] % 3),
		Stream: streams[b[1]/2%3], Domain: "HSW",
		Label: strings.Repeat("l", int(b[2]%48)),
		Bytes: int64(b[3]) << 10, Flops: float64(b[3]) * 1.5,
		Err: b[2]&0x40 != 0, DeadlineHit: b[2]&0x80 != 0, Rerouted: b[3]&1 != 0,
		Enqueue: time.Duration(id), Ready: time.Duration(id) + 1,
		Launch: time.Duration(id) + 2, Finish: time.Duration(id) + time.Duration(b[0]),
		Retries:    int(b[3]>>1) % 3,
		CostKernel: int(b[0] % 9), CostN: int(b[3]), CostBytes: float64(b[2]), CostExtra: time.Duration(b[0]),
	}
	sp.RetryWait = time.Duration(sp.Retries) * time.Millisecond
	if sp.Stream == "KNC0.s2" {
		sp.Domain = "KNC0"
		if b[3]&2 != 0 {
			sp.Src, sp.Dst = "HSW", "KNC0"
		}
	}
	for j := range uint64(b[0] % 41) {
		sp.Deps = append(sp.Deps, Dep{ID: id + j, Why: DepKind(j % 3)})
	}
	return sp
}

func TestLatestRunFilters(t *testing.T) {
	spans := []Span{{ID: 1, Run: 1}, {ID: 2, Run: 2}, {ID: 3, Run: 2}}
	got := LatestRun(spans)
	if len(got) != 2 || got[0].Run != 2 || got[1].Run != 2 {
		t.Fatalf("LatestRun = %+v, want the two run-2 spans", got)
	}
	if n := len(FilterRun(spans, 1)); n != 1 {
		t.Fatalf("FilterRun(1) len = %d, want 1", n)
	}
}

func TestWriteChromeSpansFlowEvents(t *testing.T) {
	spans := []Span{
		{ID: 1, Run: 3, Kind: Transfer, Stream: "c.s0", Domain: "KNC0", Src: "HSW", Dst: "KNC0",
			Enqueue: 0, Ready: 0, Launch: 0, Finish: ms(10), Bytes: 64},
		{ID: 2, Run: 3, Kind: Compute, Stream: "c.s1", Domain: "KNC0", Label: "dgemm",
			Enqueue: ms(1), Ready: ms(10), Launch: ms(10), Finish: ms(30), Flops: 100,
			Deps: []Dep{{ID: 1, Why: DepEvent}}},
	}
	var buf bytes.Buffer
	if err := WriteChromeSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"ph":"s"`, `"ph":"f"`, `"bp":"e"`, `"cat":"event"`,
		`"ph":"X"`, `"dgemm"`, `"process_name"`, `"thread_name"`, `"run 3"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("chrome spans output missing %s:\n%s", want, out)
		}
	}
	// Exactly one flow pair for the single dependence edge.
	if n := strings.Count(out, `"ph":"s"`); n != 1 {
		t.Fatalf("flow starts = %d, want 1", n)
	}
}
