// Every exported metric family must have a reader: a health rule, a
// /debug view, a bench metric key, or a row in OPERATIONS.md that
// tells an operator what to watch it for. A family nothing reads is
// cost without signal, and is deleted rather than given a reader.
package hstreams_test

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"hstreams/internal/core"
	"hstreams/internal/fault"
	"hstreams/internal/health"
	"hstreams/internal/metrics"
	"hstreams/internal/platform"
	"hstreams/internal/serve"
	"hstreams/internal/telemetry"
)

// familyNames returns the families declared by "# TYPE" lines of a
// Prometheus text exposition.
func familyNames(prom []byte) []string {
	var names []string
	for _, line := range strings.Split(string(prom), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" && f[1] == "TYPE" {
			names = append(names, f[2])
		}
	}
	return names
}

// exportedFamilies is every family the exposition golden holds plus
// those a Real runtime with one card, a serve.Server, a health engine
// with its journal and sampler, and a fault injector register, sorted.
func exportedFamilies(t *testing.T) []string {
	t.Helper()
	golden, err := os.ReadFile("cmd/hsbench/testdata/exposition.golden")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	rt, err := core.Init(core.Config{Machine: platform.HSWPlusKNC(1), Mode: core.ModeReal, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Fini()
	srv, err := serve.New(serve.Options{Runtime: rt, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	health.New(health.Options{Registry: reg, Journal: health.NewJournal(0, reg), Store: telemetry.NewStore(0, 0)})
	telemetry.NewSampler(telemetry.SamplerOptions{Registry: reg, Store: telemetry.NewStore(0, 0)})
	fault.NewInjector(fault.Plan{}, reg)
	var prom bytes.Buffer
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	fams := append(familyNames(golden), familyNames(prom.Bytes())...)
	slices.Sort(fams)
	return slices.Compact(fams)
}

var quotedFamily = regexp.MustCompile(`"(hstreams_[a-z0-9_]+)"`)

// quotedFamilies adds to into the family names quoted in the non-test
// Go files matching glob: the names a reader looks up.
func quotedFamilies(t *testing.T, glob string, into map[string]bool) {
	t.Helper()
	files, err := filepath.Glob(glob)
	if err != nil || len(files) == 0 {
		t.Fatalf("no reader source matches %s (%v)", glob, err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range quotedFamily.FindAllSubmatch(src, -1) {
			into[string(m[1])] = true
		}
	}
}

// operationsRows returns the families named in the first cell of an
// OPERATIONS.md table row.
func operationsRows(t *testing.T) map[string]bool {
	t.Helper()
	doc, err := os.ReadFile("OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile("`(hstreams_[a-z0-9_]+)")
	rows := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || strings.TrimSpace(cells[0]) != "" {
			continue
		}
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			rows[m[1]] = true
		}
	}
	return rows
}

func TestEveryMetricFamilyHasAReader(t *testing.T) {
	rules := map[string]bool{}
	for _, r := range health.DefaultRules() {
		rules[r.Series] = true
		if r.Denominator != "" {
			rules[r.Denominator] = true
		}
	}
	views := map[string]bool{} // what /debug/timeline reads
	quotedFamilies(t, "internal/telemetry/timeline.go", views)
	bench := map[string]bool{}
	quotedFamilies(t, "bench/*.go", bench)
	readers := []map[string]bool{rules, views, bench, operationsRows(t)}
	fams := exportedFamilies(t)
	if len(fams) < 40 {
		t.Fatalf("found only %d families; the registration above lost a component", len(fams))
	}
	for _, fam := range fams {
		read := false
		for _, r := range readers {
			// A histogram is read through its _sum, _count or _bucket
			// series as often as by name.
			for _, suffix := range []string{"", "_sum", "_count", "_bucket"} {
				read = read || r[fam+suffix]
			}
		}
		if !read {
			t.Errorf("%s has no reader: no health rule, /debug view, bench metric or OPERATIONS.md row names it", fam)
		}
	}
}
