package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tiny is the smallest scale at which every experiment still has data.
var tiny = []string{"-datasets", "2", "-length", "32", "-count", "6", "-queries", "1"}

func runDriver(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(append(args, tiny...), &out, &errOut)
	return code, out.String(), errOut.String()
}

// requireSections checks that report has exactly the given section headings,
// in order, each followed by a fenced table.
func requireSections(t *testing.T, report string, titles ...string) {
	t.Helper()
	if !strings.HasPrefix(report, "# SAPLA reproduction report\n\nGenerated ") {
		t.Fatalf("report does not open with the title and Generated line:\n%s", report)
	}
	var got []string
	for _, line := range strings.Split(report, "\n") {
		if title, ok := strings.CutPrefix(line, "## "); ok {
			got = append(got, title)
			if !strings.Contains(report, line+"\n\n```\n") {
				t.Fatalf("section %q has no fenced table", title)
			}
		}
	}
	if strings.Join(got, "\n") != strings.Join(titles, "\n") {
		t.Fatalf("sections\n  %q\nwant\n  %q", got, titles)
	}
}

func TestRunAllThenPerDataset(t *testing.T) {
	dir := t.TempDir()
	code, report, stderr := runDriver(t, "-fig", "all", "-csv", dir)
	if code != 0 {
		t.Fatalf("-fig all exited %d: %s", code, stderr)
	}
	requireSections(t, report,
		"Figure 1 — worked example",
		"Figures 5/6/8 — SAPLA stages",
		"Figure 10 — lower-bound tightness",
		"Figure 12 — max deviation & reduction time",
		"Figures 13-16 — index quality and shape",
		"K sweep — pruning/accuracy vs K",
		"Classification application",
		"Table 1 — complexity scaling",
	)
	if !strings.Contains(stderr, "done in") {
		t.Fatalf("no progress on stderr: %q", stderr)
	}

	code, report, stderr = runDriver(t, "-fig", "perdataset", "-csv", dir)
	if code != 0 {
		t.Fatalf("-fig perdataset exited %d: %s", code, stderr)
	}
	requireSections(t, report, "Per-dataset breakdown (technical-report tables)")
	_, table, _ := strings.Cut(report, "```\n")
	table, _, _ = strings.Cut(table, "```")
	// Below the header: one row per dataset and method, all at M = 12.
	rows := strings.Split(strings.TrimSpace(table), "\n")[1:]
	if len(rows) != 2*8 {
		t.Fatalf("per-dataset table has %d rows, want 16:\n%s", len(rows), report)
	}
	for _, r := range rows {
		if f := strings.Fields(r); len(f) < 3 || f[2] != "12" {
			t.Fatalf("per-dataset row %q is not at the -m budget 12", r)
		}
	}

	for name, header := range map[string]string{
		"fig01_worked.csv":    "panel,segments,max_dev,sum_seg_max_dev,endpoints",
		"fig05_stages.csv":    "panel,segments,max_dev,sum_seg_max_dev,endpoints",
		"fig10_tightness.csv": "measure,mean,tightness,violations,pairs",
		"fig12_reduction.csv": "method,m,max_dev,sum_seg_max_dev,time_ns,series",
		"perdataset.csv":      "dataset,method,m,max_dev,sum_seg_max_dev,time_ns",
		"fig13to16_index.csv": "method,tree,pruning_power,accuracy,reduce_ns,build_ns,knn_ns,internal_nodes,leaf_nodes,height,queries",
		"ksweep.csv":          "method,tree,k,pruning_power,accuracy,queries",
		"classification.csv":  "k,accuracy,mean_rho,datasets",
		"table1_scaling.csv":  "method,n,time_ns",
	} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		first, rest, _ := strings.Cut(string(b), "\n")
		if first != header || rest == "" {
			t.Fatalf("%s: header %q and %d bytes of rows, want header %q and rows", name, first, len(rest), header)
		}
	}
}

// An unknown -fig fails before any output, so a typo cannot read as a
// successful empty run.
func TestRunUnknownFig(t *testing.T) {
	code, report, stderr := runDriver(t, "-fig", "14b")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if report != "" {
		t.Fatalf("printed a report for an unknown -fig:\n%s", report)
	}
	for _, v := range []string{`"14b"`, "all", "ksweep", "perdataset", "table1"} {
		if !strings.Contains(stderr, v) {
			t.Fatalf("stderr does not name %s: %q", v, stderr)
		}
	}
}
