package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// mainArg is the argument under which the test binary re-executes
// itself as codingtable, with the rest of its arguments as its flags.
const mainArg = "-as-codingtable"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == mainArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCodingTableGolden pins the Fig. 3 table: the output of
// `codingtable` must match testdata/codingtable.golden byte for byte.
// The line counts come from the embedded variant sources and the
// performance row from Sim mode's virtual clock, so a diff means a
// variant, its instrumentation or the cost model changed. The golden's
// first line names the GOARCH it was cut on, and the test skips on any
// other, where floating-point contraction may differ. Regenerate with
// `make update-golden`.
func TestCodingTableGolden(t *testing.T) {
	cmd := exec.Command(os.Args[0], mainArg)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("codingtable: %v\n%s", err, stderr.String())
	}
	golden := filepath.Join("testdata", "codingtable.golden")
	if *update {
		if err := os.WriteFile(golden, append([]byte("goarch "+runtime.GOARCH+"\n"), out...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	header, want, _ := bytes.Cut(raw, []byte("\n"))
	if arch := string(bytes.TrimPrefix(header, []byte("goarch "))); arch != runtime.GOARCH {
		t.Skipf("%s was cut on %s; this is %s, where floating-point results may differ", golden, arch, runtime.GOARCH)
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("codingtable output differs from %s (regenerate with -update):\ngot:\n%s\nwant:\n%s", golden, out, want)
	}
}
