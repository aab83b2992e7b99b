// Command sapla-experiments regenerates the paper's tables and figures and
// writes them to stdout as one Markdown report (`make report` keeps it in
// REPORT.md). Progress and per-section times go to stderr.
//
// Usage:
//
//	sapla-experiments [flags] > REPORT.md
//
//	-fig string     which tables to print: all, 1, 5, 6, 8, 10, 12, 13, 14,
//	                15, 16, ksweep, perdataset, classify, table1 (default "all")
//	-full           run at the paper's full scale
//	                (117 datasets × 100 series × length 1024)
//	-datasets int   limit the number of datasets (0 = configuration default)
//	-files string   glob of real UCR text files replacing the synthetic archive
//	-length int     series length override
//	-count int      series per dataset override
//	-queries int    queries per dataset override
//	-m int          coefficient budget for the index experiments (default 12)
//	-workers int    experiment worker pool size (default GOMAXPROCS)
//	-csv dir        also write each experiment's rows as CSV into dir
//
// Each experiment runs once and yields every table cut from it. The index
// experiment gives Figures 13–16 ("-fig 13", 14, 15 or 16 prints the combined
// table) and the K sweep; Figure 12's reduction experiment gives the
// per-dataset breakdown at budget -m, which is printed only on request.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"sapla/internal/eval"
	"sapla/internal/ucr"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// writeCSV writes rows as dir/name through write; an empty dir writes nothing.
func writeCSV[T any](dir, name string, write func(io.Writer, T) error, rows T) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := write(f, rows); err != nil {
		f.Close() //sapla:errok the write error takes precedence over any close failure
		return err
	}
	return f.Close()
}

// A section is one titled table of the report.
type section struct {
	title     string
	figs      []string // the -fig values that select it
	onRequest bool     // left out of -fig all
	body      func() (string, error)
	note      string // printed below the table
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sapla-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "tables to print: all, 1, 5, 6, 8, 10, 12, 13, 14, 15, 16, ksweep, perdataset, classify, table1")
	full := fs.Bool("full", false, "paper-scale run (117×100×1024)")
	nDatasets := fs.Int("datasets", 0, "limit dataset count (0 = default)")
	length := fs.Int("length", 0, "series length override")
	count := fs.Int("count", 0, "series per dataset override")
	queries := fs.Int("queries", 0, "queries per dataset override")
	m := fs.Int("m", 12, "coefficient budget for index experiments")
	workers := fs.Int("workers", 0, "experiment worker pool size (0 = GOMAXPROCS)")
	csvDir := fs.String("csv", "", "also write each experiment's rows as CSV into this directory")
	files := fs.String("files", "", "glob of real UCR text files to use instead of the synthetic archive")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	opt := eval.DefaultOptions()
	if *full {
		opt = eval.FullOptions()
	}
	if *nDatasets > 0 {
		all := ucr.Datasets()
		if *nDatasets < len(all) {
			all = all[:*nDatasets]
		}
		opt.Datasets = eval.Sources(all)
	}
	if *files != "" {
		paths, err := filepath.Glob(*files)
		if err != nil || len(paths) == 0 {
			fmt.Fprintf(stderr, "no dataset files match %q (%v)\n", *files, err)
			return 1
		}
		var srcs []ucr.Source
		for _, p := range paths {
			srcs = append(srcs, ucr.NewFileSource(p))
		}
		opt.Datasets = srcs
	}
	if *length > 0 {
		opt.Cfg.Length = *length
	}
	if *count > 0 {
		opt.Cfg.Count = *count
	}
	if *queries > 0 {
		opt.Cfg.Queries = *queries
	}
	opt.Workers = *workers

	// The two experiments that feed more than one table run at most once.
	var (
		reduction []eval.ReductionRow
		perDS     []eval.DatasetRow
		index     []eval.IndexRow
		kSweep    []eval.KRow
	)
	reductionExp := sync.OnceValue(func() (err error) {
		if reduction, perDS, err = eval.ReductionExperiment(opt); err != nil {
			return err
		}
		if err := writeCSV(*csvDir, "fig12_reduction.csv", eval.WriteReductionCSV, reduction); err != nil {
			return err
		}
		return writeCSV(*csvDir, "perdataset.csv", eval.WriteDatasetCSV, perDS)
	})
	indexExp := sync.OnceValue(func() (err error) {
		if index, kSweep, err = eval.IndexExperiment(opt, *m); err != nil {
			return err
		}
		if err := writeCSV(*csvDir, "fig13to16_index.csv", eval.WriteIndexCSV, index); err != nil {
			return err
		}
		return writeCSV(*csvDir, "ksweep.csv", eval.WriteKCSV, kSweep)
	})

	sections := []section{
		{title: "Figure 1 — worked example", figs: []string{"1"}, body: func() (string, error) {
			rows, err := eval.WorkedExample()
			if err != nil {
				return "", err
			}
			plot, err := eval.PlotWorkedExample(12)
			if err != nil {
				return "", err
			}
			return eval.FormatWorked(rows) + "\n" + plot, writeCSV(*csvDir, "fig01_worked.csv", eval.WriteWorkedCSV, rows)
		}},
		{title: "Figures 5/6/8 — SAPLA stages", figs: []string{"5", "6", "8"}, body: func() (string, error) {
			rows, err := eval.WorkedStages()
			if err != nil {
				return "", err
			}
			return eval.FormatWorked(rows), writeCSV(*csvDir, "fig05_stages.csv", eval.WriteWorkedCSV, rows)
		}},
		{title: "Figure 10 — lower-bound tightness", figs: []string{"10"}, body: func() (string, error) {
			rows, err := eval.TightnessExperiment(opt, *m)
			if err != nil {
				return "", err
			}
			return eval.FormatTightness(rows), writeCSV(*csvDir, "fig10_tightness.csv", eval.WriteTightnessCSV, rows)
		}},
		{title: "Figure 12 — max deviation & reduction time", figs: []string{"12"}, body: func() (string, error) {
			err := reductionExp()
			return eval.FormatReduction(reduction), err
		}},
		{title: "Figures 13-16 — index quality and shape", figs: []string{"13", "14", "15", "16"}, body: func() (string, error) {
			err := indexExp()
			return eval.FormatIndex(index), err
		}, note: "Both trees run on one storage and search engine (one arena skeleton, DESIGN §6) " +
			"and differ only in their node covers, so the R-tree and DBCH-tree Build and kNN/query " +
			"times compare an MBR cover with a distance hull, not two storage engines."},
		{title: "K sweep — pruning/accuracy vs K", figs: []string{"ksweep"}, body: func() (string, error) {
			err := indexExp()
			return eval.FormatKRows(kSweep), err
		}},
		{title: "Per-dataset breakdown (technical-report tables)", figs: []string{"perdataset"}, onRequest: true, body: func() (string, error) {
			if err := reductionExp(); err != nil {
				return "", err
			}
			var atM []eval.DatasetRow
			for _, d := range perDS {
				if d.M == *m {
					atM = append(atM, d)
				}
			}
			if len(atM) == 0 {
				return "", fmt.Errorf("-m %d is not one of the reduction budgets %v", *m, opt.Ms)
			}
			return eval.FormatDatasetRows(atM), nil
		}},
		{title: "Classification application", figs: []string{"classify"}, body: func() (string, error) {
			row, err := eval.ClassificationExperiment(opt, 1)
			if err != nil {
				return "", err
			}
			return eval.FormatClassification(row), writeCSV(*csvDir, "classification.csv", eval.WriteClassificationCSV, row)
		}},
		{title: "Table 1 — complexity scaling", figs: []string{"table1"}, body: func() (string, error) {
			lengths := []int{64, 128, 256}
			if *full {
				lengths = []int{128, 256, 512, 1024}
			}
			rows, err := eval.ScalingExperiment(lengths, *m, 3)
			if err != nil {
				return "", err
			}
			return eval.FormatScaling(rows), writeCSV(*csvDir, "table1_scaling.csv", eval.WriteScalingCSV, rows)
		}},
	}

	valid := []string{"all"}
	selected := func(s section) bool {
		if *fig == "all" {
			return !s.onRequest
		}
		return slices.Contains(s.figs, *fig)
	}
	known := *fig == "all"
	for _, s := range sections {
		valid = append(valid, s.figs...)
		known = known || selected(s)
	}
	if !known {
		fmt.Fprintf(stderr, "sapla-experiments: unknown -fig %q; valid values: %s\n", *fig, strings.Join(valid, ", "))
		return 2
	}

	fmt.Fprintf(stdout, "# SAPLA reproduction report\n\n")
	fmt.Fprintf(stdout, "Generated %s — %d datasets, n = %d, %d series/dataset, %d queries, M = %v, K = %v.\n\n",
		time.Now().Format(time.RFC1123), len(opt.Datasets), opt.Cfg.Length,
		opt.Cfg.Count, opt.Cfg.Queries, opt.Ms, opt.Ks)
	for _, s := range sections {
		if !selected(s) {
			continue
		}
		start := time.Now()
		fmt.Fprintf(stderr, "%-50s", s.title+"...")
		body, err := s.body()
		if err != nil {
			fmt.Fprintf(stderr, "failed: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
		fmt.Fprintf(stdout, "## %s\n\n```\n%s```\n\n", s.title, body)
		if s.note != "" {
			fmt.Fprintf(stdout, "%s\n\n", s.note)
		}
	}
	return 0
}
