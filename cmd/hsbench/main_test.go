package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"hstreams/internal/app"
	"hstreams/internal/core"
	"hstreams/internal/matmul"
	"hstreams/internal/metrics"
	"hstreams/internal/platform"
)

var update = flag.Bool("update", false, "rewrite golden files")

// mainArg is the argument under which the test binary re-executes
// itself as hsbench, with the rest of its arguments as hsbench's flags.
const mainArg = "-as-hsbench"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == mainArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs hsbench with args in a fresh process, so process-wide
// state (the default registry and flight recorder, runtime ids) starts
// as it does from the command line, and returns its standard output.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{mainArg}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("hsbench %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
}

// figuresUnderRace are the figures TestFiguresGolden runs one by one
// under the race detector: all of -fig all except tuning, which takes
// about 3 of its 4 seconds, and over a minute under -race.
var figuresUnderRace = []string{"3", "6", "7", "8", "9", "overhead", "ompss", "rtm", "lu"}

// TestFiguresGolden pins every figure's numbers: the output of
// `hsbench -fig all -critpath` must match testdata/figures.golden byte
// for byte. Sim mode runs on a virtual clock, so the output depends on
// the event order and the floating-point cost model alone; a diff
// means a schedule or a cost changed. The golden's first line names the
// GOARCH it was cut on, and the test skips on any other, where
// floating-point contraction may differ. Under -race it runs the
// figures of figuresUnderRace one by one and finds each one's text
// in the golden. Regenerate with `make update-golden`.
func TestFiguresGolden(t *testing.T) {
	golden := filepath.Join("testdata", "figures.golden")
	if *update {
		out := runMain(t, "-fig", "all", "-critpath")
		if err := os.WriteFile(golden, []byte("goarch "+runtime.GOARCH+"\n"+out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	header, want, _ := strings.Cut(string(raw), "\n")
	if arch := strings.TrimPrefix(header, "goarch "); arch != runtime.GOARCH {
		t.Skipf("%s was cut on %s; this is %s, where floating-point results may differ", golden, arch, runtime.GOARCH)
	}
	if raceEnabled {
		for _, fig := range figuresUnderRace {
			out := runMain(t, "-fig", fig)
			// The last line is the telemetry summary of this run alone.
			sec := out[:strings.LastIndex(strings.TrimSuffix(out, "\n"), "\n")+1]
			if !strings.Contains(want, sec) {
				t.Errorf("-fig %s output is not in %s (regenerate with -update):\n%s", fig, golden, sec)
			}
		}
		return
	}
	if got := runMain(t, "-fig", "all", "-critpath"); got != want {
		t.Fatalf("-fig all -critpath differs from %s (regenerate with -update):\n%s",
			golden, firstDiff(want, got))
	}
}

// expositionDump runs a fixed Sim workload under a fresh registry and
// returns the Prometheus exposition. Sim mode is fully deterministic
// (virtual clock, no goroutine scheduling in the timings), so the
// bytes must not change between runs or machines.
func expositionDump(t *testing.T) string {
	t.Helper()
	reg := metrics.New()
	a, err := app.Init(app.Options{
		Machine:        platform.HSWPlusKNC(1),
		Mode:           core.ModeSim,
		StreamsPerCard: 2,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := matmul.Run(a, matmul.Config{N: 4800, Tile: 1200}); err != nil {
		t.Fatal(err)
	}
	a.Fini()
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestExpositionGolden pins the -metrics exposition format: families
// and series sorted, stable HELP/TYPE text, deterministic Sim-mode
// values. A diff here means the telemetry surface changed — update
// the golden with `go test ./cmd/hsbench -run TestExpositionGolden
// -update` and call the change out in review.
func TestExpositionGolden(t *testing.T) {
	got := expositionDump(t)
	if again := expositionDump(t); again != got {
		t.Fatal("exposition is not deterministic across identical runs")
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Fatalf("exposition differs from %s (regenerate with -update):\n%s",
			golden, firstDiff(string(want), got))
	}
}

// firstDiff renders the first differing line for a readable failure.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want %s\n  got  %s", i+1, w, g)
		}
	}
	return ""
}
