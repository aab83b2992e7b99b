package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// contract is BENCHMARK.json: the workloads, the metrics and their bounds.
// The A/A check and the unit tests read it, so the numbers live in one
// place.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(root string) (*contract, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is what
// the acceptance rule is written in.
func quartiles(values []float64) (q1, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		return data[0], data[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return at(1), at(3)
}

// worsening is how much worse b is than a, as a share of a, given which
// direction is better. Negative means b is better.
func worsening(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA is the A/A check: per workload, two sets of n runs of this same
// binary, every run with a seed of its own, one set after the other as the
// acceptance procedure does it. It prints, per (workload, metric), both
// medians, the second's worsening over the first and the quartile spread
// of each set and of all 2n runs together against the metric's bound, as a
// Markdown table, and fails if any bound is breached.
func runAA(ctx context.Context, n, seconds int, root string) error {
	c, err := readContract(root)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("A/A check: 2 sets x %d runs per workload, %d s measured per run, seeds 1001…\n\n", n, seconds)
	fmt.Println("| workload | metric | median A | median B | B worse by | spread A | spread B | spread A+B | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
	breaches := 0
	raw := map[string][2]map[string][]float64{} // every value of every run, for bench/out/aa.json
	for _, w := range c.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		raw[w.Name] = sets
		for i := 0; i < 2*n; i++ {
			cmd := exec.CommandContext(ctx, self, "-workload", w.Name, "-seed", strconv.Itoa(1001+i),
				"-seconds", strconv.Itoa(seconds), "-root", root)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, 1001+i, err)
			}
			res, err := lastResult(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, 1001+i, err)
			}
			for name, m := range res.Metrics {
				sets[i/n][name] = append(sets[i/n][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "aa: %s run %d/%d done\n", w.Name, i+1, 2*n)
		}
		for _, def := range c.EndToEnd {
			a, b := sets[0][def.Name], sets[1][def.Name]
			if len(a) != n || len(b) != n {
				return fmt.Errorf("%s: metric %s missing from a run", w.Name, def.Name)
			}
			ma, mb := median(a), median(b)
			spread := func(v []float64, med float64) float64 {
				q1, q3 := quartiles(v)
				return (q3 - q1) / med
			}
			sa, sb := spread(a, ma), spread(b, mb)
			all := append(append([]float64(nil), a...), b...)
			sall := spread(all, median(all))
			worse := worsening(ma, mb, def.Better)
			verdict := "ok"
			// Set-up time answers to the median rule only.
			if worse > def.Bound || (def.Name != "setup_s" && (sa > def.Bound || sb > def.Bound || sall > def.Bound)) {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("| %s | %s | %.5g | %.5g | %+.2f%% | %.2f%% | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				w.Name, def.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*sall, 100*def.Bound, verdict)
		}
	}
	if data, err := json.MarshalIndent(raw, "", " "); err == nil {
		_ = os.WriteFile(filepath.Join(root, "bench", "out", "aa.json"), data, 0o644) // a diagnostic; the table is the result
	}
	if breaches > 0 {
		return fmt.Errorf("%d (workload, metric) pairs breach their bound", breaches)
	}
	return nil
}

// lastResult parses the last line of a run's standard output.
func lastResult(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return &res, nil
}
