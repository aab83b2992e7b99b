// Command loadgen is the repository's benchmark: it generates a seeded
// workload, spawns the real cmd/sapla-serve binary as a child process,
// drives it over loopback HTTP/1.1 keep-alive connections in a closed loop,
// verifies every answer against a brute-force oracle and prints each
// end-to-end metric by name with its unit. With -trace 1 it makes the
// separate traced run that yields the per-layer metrics. See ../README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run (search_1shard, search_4shard, rw_long_4shard, smoke)")
		seed     = flag.Int64("seed", 1, "seed of the generated data and requests")
		seconds  = flag.Int("seconds", 50, "span the measured rounds are spread over")
		trace    = flag.Int("trace", 0, "1 = traced run that reports the per-layer metrics")
		root     = flag.String("root", "..", "repository root (holds cmd/sapla-serve)")
		server   = flag.String("server", "", "prebuilt sapla-serve binary (default: build from -root)")
		tmp      = flag.String("tmp", "", "scratch directory for binaries and data dirs (default: a fresh one under -root/.bench_build)")
		aa       = flag.Int("aa", 0, "A/A check: run two sets of this many runs per workload and compare them")
	)
	flag.Parse()

	// Every phase runs under this deadline, and a signal cancels it: the
	// deferred clean-up then kills the child and removes the scratch data.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *aa > 0 {
		if err := runAA(ctx, *aa, *seconds, *root); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			return 1
		}
		return 0
	}

	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()

	res, err := runOnce(ctx, *workload, *seed, *seconds, *trace == 1, *root, *server, *tmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runOnce runs one workload once and returns the driver-facing result. The
// full report (manifest, every metric, findings) goes to
// bench/out/<workload>.json; the human-readable table goes to stdout ahead
// of the result line.
func runOnce(ctx context.Context, workload string, seed int64, seconds int, traced bool, root, serverBin, tmp string) (*result, error) {
	sp, err := findSpec(workload)
	if err != nil {
		return nil, err
	}
	root, err = filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "sapla-serve")); err != nil {
		return nil, fmt.Errorf("-root %s is not the repository: %w", root, err)
	}
	if tmp == "" {
		base := filepath.Join(root, ".bench_build", "tmp")
		if err := os.MkdirAll(base, 0o755); err != nil {
			return nil, err
		}
		if tmp, err = os.MkdirTemp(base, "run-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
	}
	if serverBin == "" {
		if serverBin, err = buildServer(ctx, root, tmp); err != nil {
			return nil, err
		}
	}
	e := env{serverBin: serverBin, tmp: tmp}

	in := makeInputs(sp, seed)
	span := time.Duration(seconds) * time.Second

	var rep *report
	if traced {
		rep, err = tracedRun(ctx, e, in, span)
	} else {
		rep, err = plainRun(ctx, e, in, span)
	}
	if err != nil {
		return nil, err
	}
	rep.Manifest = newManifest(root, sp, seed, seconds, traced, rep.Manifest)
	if err := rep.write(filepath.Join(root, "bench", "out"), sp.name, traced); err != nil {
		return nil, err
	}
	rep.print(os.Stdout)

	res := &result{
		Correct:   rep.Failed == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   rep.Metrics,
	}
	if res.Attempted == 0 {
		return nil, errors.New("no request was attempted")
	}
	return res, nil
}

// report is the full record of a run, written to bench/out/.
type report struct {
	Manifest  map[string]any    `json:"manifest"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Findings  []string          `json:"findings,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Extra are diagnostics outside the gated set (raw wall figures, the
	// host probe) that an untraced run records anyway.
	Extra map[string]metric `json:"extra,omitempty"`

	// Samples holds every raw timing in milliseconds, [class][distinct
	// request][round], so an estimator can be re-evaluated offline.
	Samples map[string][][]float64 `json:"samples_ms,omitempty"`
	// ProbesUS holds every host-probe sample in microseconds, in the order
	// taken; the manifest's round_first_probe indexes it by round.
	ProbesUS []float64 `json:"probes_us,omitempty"`

	spans []span // a traced run's spans, written next to the report
}

func (r *report) write(dir, workload string, traced bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := workload + ".json"
	if traced {
		name = workload + ".layers.json"
		if err := writeTrace(filepath.Join(dir, workload+".trace.json"), r.spans); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func (r *report) print(w *os.File) {
	table := func(title string, m map[string]metric) {
		if len(m) == 0 {
			return
		}
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "%s\n", title)
		for _, name := range names {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, m[name].Value, m[name].Unit)
		}
	}
	table("metrics", r.Metrics)
	table("diagnostics (ungated)", r.Extra)
	for _, f := range r.Findings {
		fmt.Fprintf(w, "finding: %s\n", f)
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n", r.Attempted, r.Failed)
}
