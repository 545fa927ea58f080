package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thermctl/internal/experiment"
)

func TestCollectAndMarkdown(t *testing.T) {
	all, err := Collect(experiment.Seed)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := all.Markdown(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	// Every section present.
	for _, want := range []string{
		"# Reproduction report",
		"## Figure 2", "## Figure 5", "## Figure 6", "## Figure 7",
		"## Figure 8", "## Figure 9", "## Table 1", "## Figure 10",
		"## Extensions",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing section %q", want)
		}
	}
	// The verdict machinery mirrors the test suite: on the fixed seed,
	// no paper-claim section may report a deviation (the two documented
	// deviations are prose items in EXPERIMENTS.md, asserted with
	// widened predicates both there and here).
	if n := strings.Count(out, "DEVIATION"); n != 0 {
		t.Errorf("report carries %d DEVIATION verdicts:\n%s", n, out)
	}
	// Paper reference values appear alongside measurements.
	if !strings.Contains(out, "paper ≈8") || !strings.Contains(out, "+4.76%") {
		t.Error("paper reference values missing")
	}
}

// TestReportMatchesCommitted pins docs/report.md to the live harness:
// the committed report must be exactly what Collect renders, serially
// and with a worker pool, so a change to any construction path that
// moves a number shows up here, and two renders can never differ.
// Regenerate with `make report`.
func TestReportMatchesCommitted(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "docs", "report.md"))
	if err != nil {
		t.Fatal(err)
	}
	defer func(w int) { experiment.Workers = w }(experiment.Workers)
	for _, workers := range []int{1, 4} {
		experiment.Workers = workers
		all, err := Collect(experiment.Seed)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := all.Markdown(&sb); err != nil {
			t.Fatal(err)
		}
		if got := sb.String(); got != string(want) {
			t.Errorf("workers=%d: rendered report differs from docs/report.md at line %d; run `make report` if the change is intended",
				workers, firstDiffLine(got, string(want)))
		}
	}
}

// firstDiffLine returns the 1-based line where a and b first differ.
func firstDiffLine(a, b string) int {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return i + 1
		}
	}
	return min(len(al), len(bl)) + 1
}
