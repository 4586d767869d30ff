package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// metricDef is one metric of BENCHMARK.json. Bound is the share of
// the first value by which an end-to-end metric may get worse;
// per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the names, units and bounds the
// program reports against. The program does not repeat them.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// errBeyondBound reports a comparison in which some metric got worse
// by more than its bound.
var errBeyondBound = fmt.Errorf("beyond bound")

// compareFiles prints every end-to-end metric of every workload in
// two result sets with both values, the change and the bound, and
// returns errBeyondBound if b is worse than a by more than a bound,
// failed an operation, or disagrees on a count that must repeat.
func compareFiles(spec *benchSpec, pathA, pathB string, w io.Writer) error {
	var a, b resultSet
	for _, f := range []struct {
		path string
		into *resultSet
	}{{pathA, &a}, {pathB, &b}} {
		raw, err := os.ReadFile(f.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, f.into); err != nil {
			return fmt.Errorf("%s: %w", f.path, err)
		}
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)

	defs, exact := spec.EndToEnd, map[string]bool{}
	if a.Traced {
		// Traced sets carry no bounded metrics; what must hold is
		// that the counts the program makes repeat exactly.
		defs = nil
		for _, d := range spec.PerLayer {
			if exactCounts[d.Name] {
				defs = append(defs, d)
				exact[d.Name] = true
			}
		}
	}
	bad := 0
	fmt.Fprintf(w, "%-13s %-26s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, name := range names {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if rb == nil {
			fmt.Fprintf(w, "%-13s missing from %s\n", name, pathB)
			bad++
			continue
		}
		for _, side := range []*result{ra, rb} {
			if !side.Correct || side.Failed != 0 {
				fmt.Fprintf(w, "%-13s incorrect or failed operations (%d of %d)\n", name, side.Failed, side.Attempted)
				bad++
			}
		}
		for _, d := range defs {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			worse := (vb - va) / va
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			switch {
			case exact[d.Name] && va != vb:
				verdict = "  DIFFERS (must repeat exactly)"
				bad++
			case !exact[d.Name] && worse > d.Bound:
				verdict = "  BEYOND BOUND"
				bad++
			}
			fmt.Fprintf(w, "%-13s %-26s %14.9g %14.9g %+8.1f%% %6.0f%%%s\n", name, d.Name, va, vb, worse*100, d.Bound*100, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d finding(s): %w", bad, errBeyondBound)
	}
	return nil
}

// exactCounts are the per-layer metrics that count work instead of
// timing it; two runs of one commit with one seed must agree on them
// to the last digit.
var exactCounts = map[string]bool{
	"core.sim_makespan_us":      true,
	"core.dep_edges_per_action": true,
	"fabric.link_bytes":         true,
	"fabric.link_transfers":     true,
}
