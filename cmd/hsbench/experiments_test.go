package main

import (
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestExperimentsFollowGolden holds EXPERIMENTS.md's measured Fig. 6
// and Fig. 7 tables and its OmpSs-overhead bullet to figures.golden:
// every measured cell and every paper endpoint must read what the
// golden prints, row for row, and the bullet must quote each n the
// golden prints with its overhead. When a golden change moves a
// figure, the doc moves with it. Like TestFiguresGolden, it skips on
// an architecture the golden was not cut on.
func TestExperimentsFollowGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "figures.golden"))
	if err != nil {
		t.Fatal(err)
	}
	header, golden, _ := strings.Cut(string(raw), "\n")
	if arch := strings.TrimPrefix(header, "goarch "); arch != runtime.GOARCH {
		t.Skipf("figures.golden was cut on %s; this is %s", arch, runtime.GOARCH)
	}
	docRaw, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(docRaw)

	for _, fig := range []string{"Fig. 6", "Fig. 7"} {
		rows, paper := goldenFigure(t, golden, fig)
		table := docTable(t, doc, fig)
		if len(table) != len(rows) || len(paper) != len(rows) {
			t.Errorf("%s: EXPERIMENTS.md has %d rows, the golden %d and %d paper endpoints", fig, len(table), len(rows), len(paper))
			continue
		}
		for i, cells := range table {
			want := append(rows[i][1:], paper[i])
			if len(cells) != len(want)+1 {
				t.Errorf("%s row %q: %d cells, want %d", fig, cells[0], len(cells), len(want)+1)
				continue
			}
			for j, w := range want {
				if cells[j+1] != w {
					t.Errorf("%s row %q (golden %q) column %d: doc %s, golden %s", fig, cells[0], rows[i][0], j+1, cells[j+1], w)
				}
			}
		}
	}

	// The golden's OmpSs-over-hStreams lines end "overhead  50.4%".
	want := map[string]string{}
	for _, m := range regexp.MustCompile(`n=\s*(\d+):.*overhead\s+([\d.]+)%`).FindAllStringSubmatch(section(t, golden, "§III overheads"), -1) {
		want[m[1]] = m[2]
	}
	_, bullet, _ := strings.Cut(doc, "- ✅ OmpSs over hStreams")
	bullet, _, _ = strings.Cut(bullet, "\n- ")
	got := map[string]string{}
	for _, m := range regexp.MustCompile(`([\d.]+) % at (?:n=)?(\d+)`).FindAllStringSubmatch(bullet, -1) {
		got[m[2]] = m[1]
	}
	if len(want) == 0 {
		t.Fatal("no OmpSs overhead lines in the golden")
	}
	for n, pct := range want {
		if got[n] != pct {
			t.Errorf("§III OmpSs bullet at n=%s: doc %q %%, golden %s %%", n, got[n], pct)
		}
	}
}

// section returns the golden's text under the "== <name>" header, up to
// the next header.
func section(t *testing.T, golden, name string) string {
	t.Helper()
	_, s, ok := strings.Cut(golden, "== "+name)
	if !ok {
		t.Fatalf("no %q section in the golden", name)
	}
	s, _, _ = strings.Cut(s, "\n==")
	return s
}

// goldenFigure returns a figure's rows as fields (label words joined,
// then one field per size) and its "paper endpoints" list.
func goldenFigure(t *testing.T, golden, fig string) (rows [][]string, paper []string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(section(t, golden, fig)), "\n")
	for _, line := range lines[2:] { // the title's tail, the column header
		if _, list, ok := strings.Cut(line, "paper endpoints"); ok {
			_, list, _ = strings.Cut(list, ": ")
			return rows, strings.Split(list, ", ")
		}
		f := strings.Fields(line)
		n := len(f) - 6
		rows = append(rows, append([]string{strings.Join(f[:n], " ")}, f[n:]...))
	}
	t.Fatalf("%s: no paper endpoints line in the golden", fig)
	return nil, nil
}

// docTable returns the cells of the first table under the doc's
// "## <fig>" heading, header and separator rows dropped.
func docTable(t *testing.T, doc, fig string) [][]string {
	t.Helper()
	_, s, ok := strings.Cut(doc, "\n## "+fig)
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no %q heading", fig)
	}
	s, _, _ = strings.Cut(s, "\n## ")
	var rows [][]string
	for _, line := range strings.Split(s, "\n") {
		if !strings.HasPrefix(line, "|") {
			if len(rows) > 0 {
				break
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows = append(rows, cells)
	}
	if len(rows) < 2 {
		t.Fatalf("EXPERIMENTS.md %s: no table", fig)
	}
	return rows[2:]
}
