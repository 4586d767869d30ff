package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of
// one round or request share Unit; Parent is the id of the enclosing
// span (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Unit   int64  `json:"unit"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects the benchmark's own spans and the counts taken at
// the same boundaries. It stays in memory until the run ends. A nil
// tracer records nothing, so untraced runs share the call sites.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	nextID int64
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]int64{}}
}

// id reserves a span id, so that children can name their parent
// before the parent has ended.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// put records a finished span under a reserved id.
func (t *tracer) put(id, parent, unit int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Unit: unit, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// leaf records a finished span that has no children.
func (t *tracer) leaf(parent, unit int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.put(t.id(), parent, unit, name, start, end)
}

// count adds n to a named count.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// selfStat is one span name's aggregate: how often it occurred, its
// total duration, and its self time — the duration minus the part its
// children cover.
type selfStat struct {
	Name        string
	N           int
	Total, Self time.Duration
}

// selfTimes aggregates spans by name.
func selfTimes(spans []span) []selfStat {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*selfStat{}
	for _, s := range spans {
		st := agg[s.Name]
		if st == nil {
			st = &selfStat{Name: s.Name}
			agg[s.Name] = st
		}
		dur := s.End - s.Start
		st.N++
		st.Total += time.Duration(dur)
		st.Self += time.Duration(dur - covered(s, children[s.ID]))
	}
	out := make([]selfStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval its children cover,
// counting overlapping children once.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	at := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, at), min(k.End, parent.End)
		if hi > lo {
			sum += hi - lo
			at = hi
		}
	}
	return sum
}

// traceFile is the document written to out/trace_<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Sampling says which calls got a span of their own; every call
	// is still counted and timed into the per-layer means.
	Sampling string           `json:"sampling"`
	Counts   map[string]int64 `json:"counts"`
	Spans    []span           `json:"spans"`
}

// write stores the spans as JSON under dir and returns the path.
func (t *tracer) write(dir, workload string, seed int64, sampling string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(traceFile{Workload: workload, Seed: seed, Sampling: sampling, Counts: t.counts, Spans: t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// report prints the self-time table of the recorded spans.
func (t *tracer) report(w io.Writer) {
	fmt.Fprintf(w, "  %-28s %9s %14s %14s\n", "span", "n", "total", "self")
	for _, st := range selfTimes(t.spans) {
		fmt.Fprintf(w, "  %-28s %9d %14s %14s\n", st.Name, st.N, st.Total, st.Self)
	}
	names := make([]string, 0, len(t.counts))
	for name := range t.counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  count %-22s %d\n", name, t.counts[name])
	}
}
