// Command sapla-bench is the benchmark-regression harness: it times the
// library's hot paths with testing.Benchmark, writes the results to
// BENCH_<date>.json, and compares them against the most recent existing
// snapshot. Two classes of regression are hard failures (non-zero exit):
// allocation regressions on the zero-allocation paths (Reduce, DistPAR,
// DistPAR/unrolled, KNN), which are invariants the code promises, and ns/op
// regressions beyond -tolerance on any tracked benchmark, which catch the
// slow drift alloc counters miss. A negative tolerance disables the timing
// gate (CI machines are too noisy to compare nanoseconds across hosts; the
// alloc gate still applies there).
//
// Usage:
//
//	sapla-bench [-dir .] [-against BENCH_2026-01-02.json] [-tolerance 0.10]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"sapla"
	"sapla/internal/dist"
)

// result is one benchmark's tracked numbers.
type result struct {
	NsOp     float64 `json:"ns_op"`
	BOp      int64   `json:"b_op"`
	AllocsOp int64   `json:"allocs_op"`
}

// snapshot is the on-disk BENCH_<date>.json document.
type snapshot struct {
	Date       string            `json:"date"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Benchmarks map[string]result `json:"benchmarks"`
}

// zeroAlloc names the benchmarks whose allocs/op must never regress above
// the baseline (and should be zero).
var zeroAlloc = []string{"Reduce", "DistPAR", "DistPAR/unrolled", "KNN"}

func main() {
	dir := flag.String("dir", ".", "directory for BENCH_<date>.json snapshots")
	against := flag.String("against", "", "explicit baseline snapshot (default: latest BENCH_*.json in -dir)")
	tolerance := flag.Float64("tolerance", 0.10, "fail when any benchmark's ns/op regresses beyond this fraction; negative disables the timing gate")
	flag.Parse()

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}
	cur := snapshot{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: map[string]result{},
	}
	outPath := filepath.Join(*dir, "BENCH_"+cur.Date+".json")

	baselinePath := *against
	if baselinePath == "" {
		baselinePath = latestSnapshot(*dir, outPath)
	}

	for _, b := range benches() {
		r := testing.Benchmark(b.fn)
		cur.Benchmarks[b.name] = result{
			NsOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BOp:      r.AllocedBytesPerOp(),
			AllocsOp: r.AllocsPerOp(),
		}
		c := cur.Benchmarks[b.name]
		fmt.Printf("%-20s %12.0f ns/op %8d B/op %6d allocs/op\n", b.name, c.NsOp, c.BOp, c.AllocsOp)
	}

	if err := write(outPath, cur); err != nil {
		fatal(err)
	}
	fmt.Printf("\nwrote %s\n", outPath)

	if baselinePath == "" {
		fmt.Println("no baseline snapshot found; nothing to compare against")
		return
	}
	base, err := read(baselinePath)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("comparing against %s (%s)\n", baselinePath, base.Date)
	failed := false
	for _, name := range zeroAlloc {
		b, okB := base.Benchmarks[name]
		c, okC := cur.Benchmarks[name]
		if !okB || !okC {
			continue
		}
		if c.AllocsOp > b.AllocsOp {
			fmt.Printf("FAIL %s: allocs/op regressed %d -> %d\n", name, b.AllocsOp, c.AllocsOp)
			failed = true
		}
	}
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := cur.Benchmarks[name]
		b, ok := base.Benchmarks[name]
		if !ok || b.NsOp <= 0 {
			continue
		}
		delta := (c.NsOp - b.NsOp) / b.NsOp
		fmt.Printf("  %-20s ns/op %12.0f -> %12.0f (%+.1f%%)\n", name, b.NsOp, c.NsOp, 100*delta)
		if *tolerance >= 0 && delta > *tolerance {
			fmt.Printf("FAIL %s: ns/op regressed %.0f -> %.0f (%+.1f%% > %.0f%% tolerance)\n",
				name, b.NsOp, c.NsOp, 100*delta, 100**tolerance)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// bench is one named harness benchmark.
type bench struct {
	name string
	fn   func(b *testing.B)
}

// benches builds the tracked hot-path benchmarks: reduction, the Dist_PAR
// filter (scalar and unrolled-flat kernels), single-query k-NN on a warm
// workspace, DBCH ingest (incremental, batched, and sharded), arena
// compaction, and the batch query engine (single-tree and scatter-gather).
func benches() []bench {
	series := randWalk(11, 1024)
	meth := sapla.SAPLA()

	// Warm representations for the distance benchmark.
	repA, err := meth.Reduce(series, 12)
	if err != nil {
		fatal(err)
	}
	repB, err := meth.Reduce(randWalk(12, 1024), 12)
	if err != nil {
		fatal(err)
	}

	// A populated DBCH-tree and query set for the search benchmarks.
	const stored, qn = 500, 32
	entries := make([]*sapla.Entry, stored)
	for i := range entries {
		raw := randWalk(int64(100+i), 128)
		rep, err := meth.Reduce(raw, 12)
		if err != nil {
			fatal(err)
		}
		entries[i] = sapla.NewEntry(i, raw, rep)
	}
	queries := make([]sapla.Query, qn)
	for i := range queries {
		raw := randWalk(int64(9000+i), 128)
		rep, err := meth.Reduce(raw, 12)
		if err != nil {
			fatal(err)
		}
		queries[i] = sapla.NewQuery(raw, rep)
	}
	tree, err := sapla.NewDBCH("SAPLA")
	if err != nil {
		fatal(err)
	}
	for _, e := range entries {
		if err := tree.Insert(e); err != nil {
			fatal(err)
		}
	}

	// A 4-shard index over the same entries for the scatter-gather
	// benchmarks. newSharded rebuilds one from scratch (the ingest
	// benchmark's unit of work).
	const benchShards = 4
	newSharded := func() *sapla.ShardedIndex {
		s, err := sapla.NewShardedIndex(benchShards, func(int) (sapla.Index, error) {
			return sapla.NewDBCH("SAPLA")
		})
		if err != nil {
			fatal(err)
		}
		return s
	}
	sharded := newSharded()
	if err := sharded.InsertBatch(entries); err != nil {
		fatal(err)
	}

	return []bench{
		{"Reduce", func(b *testing.B) {
			r := sapla.NewReducer()
			var dst sapla.Linear
			var err error
			if dst, err = r.ReduceInto(dst, series, 12); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dst, err = r.ReduceInto(dst, series, 12); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"DistPAR", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sapla.DistPAR(repA, repB); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"DistPAR/unrolled", func(b *testing.B) {
			fa, fb := dist.FlattenLinear(repA), dist.FlattenLinear(repB)
			if fa == nil || fb == nil {
				b.Fatal("representations did not flatten")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if d := dist.PARFlat(fa, fb); math.IsInf(d, 1) {
					b.Fatal("incompatible flats")
				}
			}
		}},
		{"KNN", func(b *testing.B) {
			ws := sapla.NewSearchWorkspace()
			if _, _, err := tree.KNNWith(ws, queries[0], 8); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := tree.KNNWith(ws, queries[0], 8); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"BatchKNN", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := sapla.BatchKNN(tree, queries, 8, 0); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"IngestDBCH", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t, err := sapla.NewDBCH("SAPLA")
				if err != nil {
					b.Fatal(err)
				}
				for _, e := range entries {
					if err := t.Insert(e); err != nil {
						b.Fatal(err)
					}
				}
			}
		}},
		{"IngestDBCH/batch", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t, err := sapla.NewDBCH("SAPLA")
				if err != nil {
					b.Fatal(err)
				}
				if err := t.InsertBatch(entries); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"IngestSharded", func(b *testing.B) {
			// Same unit of work as IngestDBCH/batch, split across shards
			// that commit concurrently — the win this buys at
			// GOMAXPROCS>1 is what sharding the write lock is for.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := newSharded().InsertBatch(entries); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"KNNSharded", func(b *testing.B) {
			// Scatter-gather batch k-NN at (query, shard) task
			// granularity over the 4-shard index.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := sapla.BatchKNN(sharded, queries, 8, 0); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"Compact", func(b *testing.B) {
			// A fragmented tree: every third entry deleted. Compact always
			// rebuilds when called directly, so re-running it on the already
			// compacted tree prices exactly the rebuild.
			t, err := sapla.NewDBCH("SAPLA")
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range entries {
				if err := t.Insert(e); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < len(entries); i += 3 {
				t.Delete(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Compact()
			}
		}},
	}
}

// latestSnapshot returns the lexicographically newest BENCH_*.json in dir
// other than the file about to be written, or "".
func latestSnapshot(dir, exclude string) string {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return ""
	}
	sort.Strings(matches)
	for i := len(matches) - 1; i >= 0; i-- {
		if matches[i] != exclude {
			return matches[i]
		}
	}
	return ""
}

func write(path string, s snapshot) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func read(path string) (snapshot, error) {
	var s snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	err = json.Unmarshal(data, &s)
	return s, err
}

func randWalk(seed int64, n int) sapla.Series {
	rng := rand.New(rand.NewSource(seed))
	s := make(sapla.Series, n)
	var v float64
	for i := range s {
		v += rng.NormFloat64()
		s[i] = v
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sapla-bench:", err)
	os.Exit(1)
}
