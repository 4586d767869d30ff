// Package trace holds the one per-action record, Span: the lock-free
// flight recorder that retains spans (span.go), the schedule
// statistics the evaluation relies on as pure functions over a run's
// spans — makespan, per-kind busy time, compute/transfer overlap, a
// text Gantt (this file) — critical-path attribution (critpath.go)
// and the Chrome trace-event exporter (flow.go).
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Kind classifies a span.
type Kind uint8

const (
	// Compute is a kernel invocation at a stream sink.
	Compute Kind = iota
	// Transfer is a data movement action.
	Transfer
	// Sync is a synchronization marker.
	Sync
)

// String labels the span kind for trace output.
func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Transfer:
		return "transfer"
	case Sync:
		return "sync"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Makespan returns the time from the earliest launch to the latest
// finish — the schedule length every figure reports.
func Makespan(spans []Span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	first, last := spans[0].Launch, spans[0].Finish
	for i := range spans {
		first = min(first, spans[i].Launch)
		last = max(last, spans[i].Finish)
	}
	return last - first
}

// BusyTime sums the execution time of spans of the given kind.
func BusyTime(spans []Span, k Kind) time.Duration {
	var total time.Duration
	for i := range spans {
		if spans[i].Kind == k {
			total += spans[i].Dur()
		}
	}
	return total
}

// OverlapTime returns the total time during which at least one span
// of kind a and one of kind b were simultaneously executing — the
// compute/communication overlap the streaming model exists to create.
func OverlapTime(spans []Span, a, b Kind) time.Duration {
	type edge struct {
		at    time.Duration
		kind  Kind
		delta int
	}
	var edges []edge
	for i := range spans {
		s := &spans[i]
		if s.Kind != a && s.Kind != b {
			continue
		}
		edges = append(edges, edge{s.Launch, s.Kind, +1}, edge{s.Finish, s.Kind, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		// Process ends before starts at the same instant so touching
		// intervals don't count as overlap.
		return edges[i].delta < edges[j].delta
	})
	var overlap time.Duration
	var depthA, depthB int
	var prev time.Duration
	for _, e := range edges {
		overlapping := depthA > 0 && depthB > 0
		if a == b {
			// Self-overlap means two spans of the kind executing.
			overlapping = depthA >= 2
		}
		if overlapping {
			overlap += e.at - prev
		}
		prev = e.at
		if e.kind == a {
			depthA += e.delta
		}
		if e.kind == b && a != b {
			depthB += e.delta
		}
	}
	return overlap
}

// Gantt renders a crude text timeline, one row per stream, useful in
// examples and debugging. Rows appear in timeline order: by each
// stream's first launch, ties broken by action id.
func Gantt(spans []Span, width int) string {
	if len(spans) == 0 {
		return "(empty trace)\n"
	}
	spans = append([]Span(nil), spans...)
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Launch != spans[j].Launch {
			return spans[i].Launch < spans[j].Launch
		}
		return spans[i].ID < spans[j].ID
	})
	total := Makespan(spans)
	if total <= 0 {
		total = 1
	}
	origin := spans[0].Launch
	rows := map[string][]rune{}
	var order []string
	for i := range spans {
		s := &spans[i]
		row, ok := rows[s.Stream]
		if !ok {
			row = []rune(strings.Repeat(".", width))
			rows[s.Stream] = row
			order = append(order, s.Stream)
		}
		c := 'C'
		switch s.Kind {
		case Transfer:
			c = 'T'
		case Sync:
			c = 's'
		}
		lo := int(int64(s.Launch-origin) * int64(width-1) / int64(total))
		hi := int(int64(s.Finish-origin) * int64(width-1) / int64(total))
		for i := lo; i <= hi && i < width; i++ {
			row[i] = c
		}
	}
	var sb strings.Builder
	for _, name := range order {
		fmt.Fprintf(&sb, "%-16s |%s|\n", name, string(rows[name]))
	}
	fmt.Fprintf(&sb, "%-16s  0 .. %v\n", "", total)
	return sb.String()
}
