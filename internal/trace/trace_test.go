package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestMakespanAndBusy(t *testing.T) {
	spans := []Span{
		{ID: 1, Kind: Compute, Stream: "s0", Launch: ms(10), Finish: ms(30), Flops: 100},
		{ID: 2, Kind: Transfer, Stream: "s0", Launch: ms(5), Finish: ms(15), Bytes: 64},
		{ID: 3, Kind: Compute, Stream: "s1", Launch: ms(20), Finish: ms(50), Flops: 200},
	}
	if got := Makespan(spans); got != ms(45) {
		t.Fatalf("Makespan = %v, want 45ms", got)
	}
	if got := BusyTime(spans, Compute); got != ms(50) {
		t.Fatalf("BusyTime(Compute) = %v, want 50ms", got)
	}
	if got := BusyTime(spans, Transfer); got != ms(10) {
		t.Fatalf("BusyTime(Transfer) = %v, want 10ms", got)
	}
}

// TestRecordsSorted pins the timeline order — by launch, ties by
// action id — where it is observable: the Gantt's row order.
func TestRecordsSorted(t *testing.T) {
	spans := []Span{
		{ID: 2, Stream: "late", Launch: ms(20), Finish: ms(21)},
		{ID: 3, Stream: "tie", Launch: ms(10), Finish: ms(12)},
		{ID: 1, Stream: "first", Launch: ms(10), Finish: ms(11)},
	}
	g := Gantt(spans, 20)
	first, tie, late := strings.Index(g, "first"), strings.Index(g, "tie"), strings.Index(g, "late")
	if !(0 <= first && first < tie && tie < late) {
		t.Fatalf("rows out of timeline order (want first, tie, late):\n%s", g)
	}
	if spans[0].ID != 2 {
		t.Fatal("Gantt reordered its argument")
	}
}

func TestOverlapComputeTransfer(t *testing.T) {
	// compute [0,100), transfer [40,60) → 20ms overlap
	spans := []Span{
		{ID: 1, Kind: Compute, Launch: 0, Finish: ms(100)},
		{ID: 2, Kind: Transfer, Launch: ms(40), Finish: ms(60)},
	}
	if got := OverlapTime(spans, Compute, Transfer); got != ms(20) {
		t.Fatalf("overlap = %v, want 20ms", got)
	}
}

func TestOverlapTouchingIntervalsIsZero(t *testing.T) {
	spans := []Span{
		{ID: 1, Kind: Compute, Launch: 0, Finish: ms(10)},
		{ID: 2, Kind: Transfer, Launch: ms(10), Finish: ms(20)},
	}
	if got := OverlapTime(spans, Compute, Transfer); got != 0 {
		t.Fatalf("touching intervals overlap = %v, want 0", got)
	}
}

func TestOverlapSameKind(t *testing.T) {
	spans := []Span{
		{ID: 1, Kind: Compute, Launch: 0, Finish: ms(30)},
		{ID: 2, Kind: Compute, Launch: ms(20), Finish: ms(50)},
	}
	if got := OverlapTime(spans, Compute, Compute); got != ms(10) {
		t.Fatalf("self-overlap = %v, want 10ms", got)
	}
}

func TestNoSpansIsSafe(t *testing.T) {
	if Makespan(nil) != 0 || BusyTime(nil, Compute) != 0 || OverlapTime(nil, Compute, Transfer) != 0 {
		t.Fatal("statistics over no spans must be zero")
	}
}

func TestGantt(t *testing.T) {
	spans := []Span{
		{ID: 1, Kind: Compute, Stream: "s0", Launch: 0, Finish: ms(50)},
		{ID: 2, Kind: Transfer, Stream: "s1", Launch: ms(25), Finish: ms(100)},
	}
	g := Gantt(spans, 40)
	if !strings.Contains(g, "s0") || !strings.Contains(g, "s1") {
		t.Fatalf("gantt missing streams:\n%s", g)
	}
	if !strings.Contains(g, "C") || !strings.Contains(g, "T") {
		t.Fatalf("gantt missing marks:\n%s", g)
	}
	if Gantt(nil, 10) != "(empty trace)\n" {
		t.Fatal("empty gantt")
	}
}

func TestKindString(t *testing.T) {
	if Compute.String() != "compute" || Transfer.String() != "transfer" || Sync.String() != "sync" {
		t.Fatal("kind names")
	}
	if Kind(7).String() == "" {
		t.Fatal("unknown kind name empty")
	}
}

// TestChromeTraceTIDsSortedOrder is a regression test for the row
// ordering bug where TIDs followed first-appearance order (which
// varies with completion order) while metadata was emitted in sorted
// order: TIDs must rank streams by sorted name, and every event must
// carry its stream's TID.
func TestChromeTraceTIDsSortedOrder(t *testing.T) {
	// First appearance deliberately in reverse-sorted stream order.
	spans := []Span{
		{ID: 1, Run: 1, Kind: Compute, Stream: "z.s1", Launch: 0, Finish: ms(1)},
		{ID: 2, Run: 1, Kind: Compute, Stream: "a.s0", Launch: ms(1), Finish: ms(2)},
		{ID: 3, Run: 1, Kind: Transfer, Stream: "m.s2", Launch: ms(2), Finish: ms(3)},
	}
	var buf bytes.Buffer
	if err := WriteChromeSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	wantTID := map[string]int{"a.s0": 1, "m.s2": 2, "z.s1": 3}
	metaTID := map[string]int{}
	for _, e := range events {
		if e["ph"] != "M" || e["name"] != "thread_name" {
			continue
		}
		name := e["args"].(map[string]interface{})["name"].(string)
		metaTID[name] = int(e["tid"].(float64))
	}
	for name, want := range wantTID {
		if metaTID[name] != want {
			t.Fatalf("meta tid for %s = %d, want %d (sorted order)", name, metaTID[name], want)
		}
	}
	// Events reference their stream's tid. Events carry no stream
	// name, so match through the launch time.
	for _, s := range spans {
		found := false
		for _, e := range events {
			if e["ph"] == "X" && e["ts"].(float64) == float64(s.Launch.Microseconds()) {
				if got := int(e["tid"].(float64)); got != wantTID[s.Stream] {
					t.Fatalf("event in %s has tid %d, want %d", s.Stream, got, wantTID[s.Stream])
				}
				if e["dur"].(float64) != 1000 { // 1ms in µs
					t.Fatalf("event in %s has dur %v µs, want 1000", s.Stream, e["dur"])
				}
				found = true
			}
		}
		if !found {
			t.Fatalf("no event found for span %d", s.ID)
		}
	}
}
