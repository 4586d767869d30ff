package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one "complete" event in the Chrome trace-event
// format (the JSON consumed by chrome://tracing and Perfetto).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeMeta names a process or thread row in the viewer.
type chromeMeta struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// chromeFlow is a flow event (ph "s" start / "f" finish): the pair
// renders as a dependency arrow between two slices in Perfetto.
type chromeFlow struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	ID   uint64  `json:"id"`
	TS   float64 `json:"ts"` // microseconds
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	BP   string  `json:"bp,omitempty"`
}

// WriteChromeSpans emits flight-recorder spans in Chrome trace-event
// JSON: one process per run, one thread row per stream, one complete
// event per span, and one flow-event pair (ph "s"/"f") per causal
// in-edge so chrome://tracing and ui.perfetto.dev draw the dependency
// arrows of the executed action DAG.
func WriteChromeSpans(w io.Writer, spans []Span) error {
	// Deterministic row assignment: runs become pids, streams become
	// tids from the per-run sorted stream-name order.
	type row struct {
		run    uint64
		stream string
	}
	streams := map[row]bool{}
	runs := map[uint64]bool{}
	for i := range spans {
		runs[spans[i].Run] = true
		streams[row{spans[i].Run, spans[i].Stream}] = true
	}
	runOrder := make([]uint64, 0, len(runs))
	for r := range runs {
		runOrder = append(runOrder, r)
	}
	sort.Slice(runOrder, func(i, j int) bool { return runOrder[i] < runOrder[j] })
	pids := map[uint64]int{}
	for i, r := range runOrder {
		pids[r] = i + 1
	}
	rowOrder := make([]row, 0, len(streams))
	for s := range streams {
		rowOrder = append(rowOrder, s)
	}
	sort.Slice(rowOrder, func(i, j int) bool {
		if rowOrder[i].run != rowOrder[j].run {
			return rowOrder[i].run < rowOrder[j].run
		}
		return rowOrder[i].stream < rowOrder[j].stream
	})
	tids := map[row]int{}
	out := make([]interface{}, 0, 2*len(spans))
	for _, r := range runOrder {
		out = append(out, chromeMeta{
			Name: "process_name",
			Ph:   "M",
			PID:  pids[r],
			Args: map[string]string{"name": fmt.Sprintf("run %d", r)},
		})
	}
	tid := 0
	for _, rw := range rowOrder {
		tid++
		tids[rw] = tid
		out = append(out, chromeMeta{
			Name: "thread_name",
			Ph:   "M",
			PID:  pids[rw.run],
			TID:  tid,
			Args: map[string]string{"name": rw.stream},
		})
	}

	byID := map[uint64]*Span{}
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	us := func(at int64) float64 { return float64(at) / 1e3 }
	var edge uint64
	for i := range spans {
		s := &spans[i]
		name := s.Label
		if name == "" {
			name = s.Kind.String()
		}
		args := map[string]string{
			"domain":  s.Domain,
			"enqueue": s.Enqueue.String(),
			"ready":   s.Ready.String(),
		}
		if s.Bytes > 0 {
			args["bytes"] = fmt.Sprint(s.Bytes)
		}
		if s.Flops > 0 {
			args["flops"] = fmt.Sprint(s.Flops)
		}
		pid, stid := pids[s.Run], tids[row{s.Run, s.Stream}]
		out = append(out, chromeEvent{
			Name: name,
			Cat:  s.Kind.String(),
			Ph:   "X",
			TS:   us(int64(s.Launch)),
			Dur:  us(int64(s.Finish - s.Launch)),
			PID:  pid,
			TID:  stid,
			Args: args,
		})
		for _, d := range s.Deps {
			p, ok := byID[d.ID]
			if !ok || p.Run != s.Run {
				continue
			}
			edge++
			// The start event sits just inside the predecessor's
			// slice so viewers bind the arrow to it.
			srcTS := us(int64(p.Finish))
			if p.Finish > p.Launch {
				srcTS -= 0.001
			}
			out = append(out,
				chromeFlow{Name: "dep", Cat: d.Why.String(), Ph: "s", ID: edge,
					TS: srcTS, PID: pid, TID: tids[row{p.Run, p.Stream}]},
				chromeFlow{Name: "dep", Cat: d.Why.String(), Ph: "f", ID: edge, BP: "e",
					TS: us(int64(s.Launch)), PID: pid, TID: stid})
		}
	}
	return json.NewEncoder(w).Encode(out)
}
