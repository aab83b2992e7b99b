package main

import (
	"context"
	"fmt"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// plainRun is the untraced run: the end-to-end metrics and nothing else in
// the way.
func plainRun(ctx context.Context, e env, in *inputs, span time.Duration) (*report, error) {
	out, err := runServer(ctx, e, in, plan{span: span, rounds: in.spec.rounds, restarts: restarts, extraSetups: setups - 1})
	if err != nil {
		return nil, err
	}
	rep := &report{
		Attempted: out.attempted,
		Failed:    out.failed,
		Findings:  out.findings,
		Metrics:   endToEnd(in, out),
		Extra:     wallMetrics(in, out),
		Samples:   rawSamples(out),
		ProbesUS:  probeMicros(out.probes),
		Manifest: map[string]any{"run_span_s": out.span.Seconds(), "paced_idle_s": out.idle.Seconds(), "samples": sampleCounts(out),
			"recovery_samples_s": out.recoverS, "spawn_samples_s": out.spawnS, "round_first_probe": out.roundAt},
	}
	return rep, nil
}

// probeMicros converts the host probe's samples, in the order taken, to
// microseconds.
func probeMicros(probes []time.Duration) []float64 {
	us := make([]float64, len(probes))
	for i, d := range probes {
		us[i] = float64(d) / 1e3
	}
	return us
}

// rawSamples converts every class's timings to milliseconds.
func rawSamples(out *outcome) map[string][][]float64 {
	raw := make(map[string][][]float64)
	for name, c := range map[string]*class{"knn": out.knn, "range": out.ranges, "knn_batch": out.batches,
		"ingest": out.ingests, "ingest_batch": out.batchIngs, "delete": out.deletes} {
		for _, s := range c.samples {
			ms := make([]float64, len(s))
			for i, d := range s {
				ms[i] = float64(d) / 1e6
			}
			raw[name] = append(raw[name], ms)
		}
	}
	return raw
}

// endToEnd derives the gated metrics from a run. Every timing is the median
// of its samples over the run's slowdown; see estimator.go.
func endToEnd(in *inputs, out *outcome) map[string]metric {
	slow := slowdown(out.probes)
	knn := out.knn.estimates(slow)
	ing := out.ingests.estimates(slow)
	// Every series the measured server acknowledged: the bulk load plus each
	// successful ingest of each round (samples are recorded on success only).
	stored := in.spec.n + out.ingests.count() + batchIngSize*out.batchIngs.count()
	m := map[string]metric{
		"setup_s":       {setupSeconds(out) / slow, "s"},
		"knn_qps":       {perSecond(knn, 1), "queries/s"},
		"knn_p50_ms":    {percentile(knn, 50), "ms"},
		"knn_p95_ms":    {percentile(knn, 95), "ms"},
		"knn_batch_qps": {perSecond(out.batches.estimates(slow), batchQueries), "queries/s"},
		"range_qps":     {perSecond(out.ranges.estimates(slow), 1), "queries/s"},
		"ingest_ops_s":  {perSecond(ing, 1), "writes/s"},
		"ingest_p90_ms": {percentile(ing, 90), "ms"},
		"recovery_s":    {median(out.recoverS) / slow, "s"},
		"heap_live_mb":  {out.heapMiB, "MiB"},
		"disk_amp":      {float64(out.diskBytes) / float64(stored*in.spec.length*8), "ratio"},
		"knn_recall":    {1 - ratio(out.missed, out.expected), "ratio"},
	}
	return m
}

// setupSeconds is the median spawn-to-ready time plus, for every bulk-load
// request, the median of its service time across the run's set-ups: the
// median of several set-ups, taken request by request so that a stall
// during one load does not decide the figure.
func setupSeconds(out *outcome) float64 {
	total := median(out.spawnS)
	for i := range out.loadMS[0] {
		col := make([]float64, len(out.loadMS))
		for s := range out.loadMS {
			col[s] = out.loadMS[s][i]
		}
		total += median(col) / 1e3
	}
	return total
}

// wallMetrics are raw figures over every sample of every round, as the
// clock read them. They are not gated: they keep GC pauses, stalls and noisy
// neighbours visible that the estimator takes out on purpose, and the host.*
// figures say how much it took out.
func wallMetrics(in *inputs, out *outcome) map[string]metric {
	knn := out.knn.wall()
	probes := probeMicros(out.probes)
	sort.Float64s(probes)
	slow := slowdown(out.probes)
	m := map[string]metric{
		"http.knn_wall_qps":       {perSecond(knn, 1), "queries/s"},
		"http.knn_wall_p50_ms":    {percentile(knn, 50), "ms"},
		"http.knn_wall_p99_ms":    {percentile(knn, 99), "ms"},
		"http.batch_wall_p50_ms":  {percentile(out.batches.wall(), 50), "ms"},
		"http.range_wall_p50_ms":  {percentile(out.ranges.wall(), 50), "ms"},
		"http.ingest_wall_p99_ms": {percentile(out.ingests.wall(), 99), "ms"},
		"http.delete_p50_ms":      {percentile(out.deletes.estimates(slow), 50), "ms"},
		// The paper's pruning power ρ (Eq. 14): series fetched for an exact
		// distance per series stored.
		"index.refine_ratio":         {ratio(out.work.measured, out.work.queries*in.spec.n), "ratio"},
		"index.refine_per_query":     {ratio(out.work.measured, out.work.queries), "count"},
		"index.filter_per_query":     {ratio(out.work.filtered, out.work.queries), "count"},
		"index.nodes_per_query":      {ratio(out.work.nodes, out.work.queries), "count"},
		"index.filter_ratio":         {ratio(out.work.filtered, out.work.queries*in.spec.n), "ratio"},
		"server.rss_peak_mb":         {out.rssMiB, "MiB"},
		"oracle.scan_ms":             {float64(in.oracle.scan) / 1e6, "ms"},
		"host.probe_us_min":          {percentile(probes, 0), "us"},
		"host.probe_us_p50":          {percentile(probes, 50), "us"},
		"host.slowdown":              {slow, "ratio"},
		"http.batch_ingest_series_s": {perSecond(out.batchIngs.estimates(slow), batchIngSize), "writes/s"},
	}
	return m
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// sampleCounts records how many samples stand behind each class's figures.
func sampleCounts(out *outcome) map[string]any {
	count := func(c *class) map[string]int {
		return map[string]int{"distinct": len(c.samples), "samples": c.count()}
	}
	return map[string]any{
		"knn": count(out.knn), "range": count(out.ranges), "knn_batch": count(out.batches),
		"ingest": count(out.ingests), "ingest_batch": count(out.batchIngs), "delete": count(out.deletes),
		"setups": len(out.spawnS), "restarts": len(out.recoverS),
	}
}

// newManifest records what was run and where: units aside, a number means
// nothing without its dataset shape, settings and host.
func newManifest(root string, sp spec, seed int64, seconds int, traced bool, more map[string]any) map[string]any {
	m := map[string]any{
		"commit":   gitOutput(root, "rev-parse", "HEAD"),
		"workload": sp.name,
		"seed":     seed,
		"seconds":  seconds,
		"traced":   traced,
		"parameters": map[string]any{
			"series": sp.n, "length": sp.length, "shards": sp.shards, "k": knnK,
			"knn_per_round": sp.knn, "range_per_round": sp.ranges,
			"knn_batches_per_round": sp.batches, "queries_per_batch": batchQueries,
			"ingests_per_round": sp.ingests, "ingest_batches_per_round": sp.batchIngs,
			"series_per_ingest_batch": batchIngSize, "series_per_load_request": loadBatchSize,
			"rounds": sp.rounds, "restarts": restarts, "setups": setups,
			"min_rounds":          minRounds,
			"reader_races_writer": traced && sp.raceInTrace,
			"loop":                "closed",
			"connections":         2, // reads, writes; used at once only when the reader races the writer
		},
		"server_flags":      strings.Join(serverFlags("<data-dir>", sp.shards), " "),
		"server_gomaxprocs": "default",
		"server_gogc":       "default",
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go":                runtime.Version(),
		"kernel":            unameRelease(),
		"time":              time.Now().UTC().Format(time.RFC3339),
	}
	for k, v := range more {
		m[k] = v
	}
	return m
}

// gitOutput returns a git query's output, or "unknown" outside a work tree
// (the driver's checkout is not one).
func gitOutput(root string, args ...string) string {
	cmd := exec.Command("git", append([]string{"-C", root}, args...)...)
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func unameRelease() string {
	out, err := exec.Command("uname", "-sr").Output()
	if err != nil {
		return fmt.Sprintf("%s/%s", runtime.GOOS, runtime.GOARCH)
	}
	return strings.TrimSpace(string(out))
}
