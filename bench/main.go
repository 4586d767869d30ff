// Command bench is the repository's benchmark: five seeded workloads
// over the whole stack, end-to-end metrics from an untraced run and
// per-layer metrics from a traced one. BENCHMARK.json at the module
// root names the metrics and their bounds; README.md in this
// directory says what each workload and metric is for.
//
//	go run ./bench -workload sched_sim -seed 1 -seconds 15 -trace 0
//	go run ./bench -seed 1                 # every workload, untraced
//	go run ./bench -seed 1 -trace 1        # every workload, traced
//	go run ./bench -compare a.json b.json  # two result sets against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// env is what a workload is run with.
type env struct {
	seed int64
	dur  time.Duration // length of the measured window
	reps int           // how often offload_real and the serve workloads set up; setup_s is the median
	tr   *tracer       // nil in an untraced run
	root string        // module root: hsserve is built from it, out/ lives under it
	log  io.Writer     // human-readable report lines
	// scale divides the fixed amounts of work (actions per round,
	// probe iterations). It is 1 except in the smoke test, which
	// checks the plumbing and not the numbers.
	scale int
}

// outDir is where span files, result sets and the hsserve binary go.
func (e *env) outDir() string { return filepath.Join(e.root, "bench", "out") }

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int64
	// problems are violated invariants; any of them, like a failed
	// operation, makes the run incorrect.
	problems []string
	e2e      map[string]float64
	layer    map[string]float64 // filled by traced runs
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// proc records the allocation diagnostics of the process hosting the
// runtime over ops operations.
func (o *outcome) proc(m memDelta, ops int) {
	o.layer["proc.allocs_per_op"] = float64(m.mallocs) / float64(ops)
	o.layer["proc.gc_pause_total_ms"] = float64(m.gcPause) / 1e6
}

// workload is one entry of the benchmark.
type workload struct {
	name string
	run  func(*env) (*outcome, error)
}

var workloads = []workload{
	{"sched_sim", func(e *env) (*outcome, error) { return runSched(schedSimShape, e) }},
	{"sched_real", func(e *env) (*outcome, error) { return runSched(schedRealShape, e) }},
	{"offload_real", runOffload},
	{"serve_open", runServeOpen},
	{"serve_mix", runServeMix},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricValue is one entry of a result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// setupReps is how often an untraced run sets up; the traced run,
// which does not report setup_s, sets up once.
const setupReps = 9

// runOne runs a workload untraced or traced and returns its result.
func runOne(spec *benchSpec, w *workload, base env, traced bool) (*result, error) {
	var (
		out    *outcome
		values map[string]float64
		defs   []metricDef
		err    error
	)
	if traced {
		out, values, err = runTraced(w, base)
		defs = spec.PerLayer
	} else {
		out, err = w.run(&base)
		if err == nil {
			values, defs = out.e2e, spec.EndToEnd
		}
	}
	if err != nil {
		return nil, err
	}

	log := base.log
	res := &result{
		Correct:   out.failed == 0 && len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, p := range out.problems {
		fmt.Fprintf(log, "%s: INCORRECT: %s\n", w.name, p)
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s of BENCHMARK.json was not measured", w.name, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(log, "%s: %-36s %14.6g %s\n", w.name, d.Name, v, d.Unit)
	}
	if !traced {
		fmt.Fprintf(log, "%s: %-36s %14d\n%s: %-36s %14d\n%s: %-36s %14.6g\n", w.name, "ops_attempted", res.Attempted,
			w.name, "ops_failed", res.Failed, w.name, "fail_share", float64(res.Failed)/float64(max(res.Attempted, 1)))
	}
	return res, nil
}

// runTraced makes the traced pass for one workload. It spends half of
// the window on the named workload with spans on, a short window on
// each of the others (every traced run reports every per-layer metric,
// and some can only be taken inside a workload), and the rest on the
// standalone layer probes. The outcome is the named workload's, with
// the operations of the side runs counted in; values holds every
// per-layer metric.
func runTraced(w *workload, base env) (out *outcome, values map[string]float64, err error) {
	e := base
	e.reps, e.dur, e.tr = 1, base.dur/2, newTracer()
	if out, err = w.run(&e); err != nil {
		return nil, nil, err
	}
	if _, ok := out.layer["proc.peak_rss_mb"]; !ok { // the serve workloads report their server's
		if out.layer["proc.peak_rss_mb"], err = peakRSSMB(0); err != nil {
			return nil, nil, err
		}
	}
	path, err := e.tr.write(e.outDir(), w.name, e.seed, fmt.Sprintf("one core.EnqueueCompute span per %d calls; every other call site spans each call", enqueueSpanEvery))
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(e.log, "%s: self time by span (spans in %s)\n", w.name, path)
	e.tr.report(e.log)

	values = out.layer
	for i := range workloads {
		other := &workloads[i]
		if other == w {
			continue
		}
		side := base
		side.reps, side.dur, side.tr = 1, min(sideWindow, base.dur), newTracer()
		so, err := other.run(&side)
		if err != nil {
			return nil, nil, fmt.Errorf("%s (side run): %w", other.name, err)
		}
		out.attempted += so.attempted
		out.failed += so.failed
		out.problems = append(out.problems, so.problems...)
		for k, v := range so.layer {
			// proc.* and bench.* describe the workload the run was
			// asked for.
			if !strings.HasPrefix(k, "proc.") && !strings.HasPrefix(k, "bench.") {
				values[k] = v
			}
		}
	}
	return out, values, layerProbes(e.seed, e.scale, values)
}

// sideWindow is the measured window of the workloads a traced run
// executes beside the one it was asked for (less when the run itself
// is shorter).
const sideWindow = 1200 * time.Millisecond

// resultSet is what a run over every workload writes and -compare
// reads.
type resultSet struct {
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Workloads map[string]*result `json:"workloads"`
}

func main() {
	if isSpinner() {
		spin()
	}
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 0, "length of the measured window (0: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1: traced run (per-layer metrics, span file); 0: end-to-end metrics")
		compare = flag.Bool("compare", false, "compare two result sets: bench -compare a.json b.json")
		outPath = flag.String("out", "", "where a run over all workloads writes its result set (default bench/out/results[_traced].json)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace != 0, *compare, *outPath, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced, compare bool, outPath string, args []string) error {
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(spec, args[0], args[1], os.Stdout)
	}
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	base := env{seed: seed, dur: time.Duration(seconds * float64(time.Second)), reps: setupReps, root: root, log: os.Stdout, scale: 1}

	if name != "all" {
		w := findWorkload(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		res, err := runOne(spec, w, base, traced)
		if err != nil {
			return err
		}
		if err := printResult(res); err != nil {
			return err
		}
		if !res.Correct {
			return fmt.Errorf("%s: incorrect (%d of %d operations failed)", name, res.Failed, res.Attempted)
		}
		return nil
	}

	set := resultSet{Seed: seed, Seconds: seconds, Traced: traced, Workloads: map[string]*result{}}
	incorrect := []string{}
	for i := range workloads {
		w := &workloads[i]
		res, err := runOne(spec, w, base, traced)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		set.Workloads[w.name] = res
		if !res.Correct {
			incorrect = append(incorrect, w.name)
		}
	}
	if outPath == "" {
		outPath = filepath.Join(root, "bench", "out", "results.json")
		if traced {
			outPath = filepath.Join(root, "bench", "out", "results_traced.json")
		}
	}
	if err := writeJSON(outPath, set); err != nil {
		return err
	}
	fmt.Printf("result set written to %s\n", outPath)
	if len(incorrect) > 0 {
		sort.Strings(incorrect)
		return fmt.Errorf("incorrect: %s", strings.Join(incorrect, ", "))
	}
	return nil
}

// printResult prints the result object as one line, the last of the
// run's standard output.
func printResult(res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(doc, '\n'), 0o644)
}

// moduleRoot walks up from the working directory to the directory
// holding this module's go.mod: the driver runs the benchmark from
// the root, go test runs it from bench/.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(raw), "module hstreams\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module hstreams above the working directory")
		}
		dir = parent
	}
}
