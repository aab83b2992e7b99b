package index

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	_ "unsafe" // go:linkname

	"sapla/internal/core"
	"sapla/internal/dist"
	"sapla/internal/ts"
)

func benchEntries(b testing.TB, count, n, m int) []*Entry {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	meth := core.New()
	out := make([]*Entry, count)
	for i := range out {
		raw := randWalk(rng, n)
		rep, err := meth.Reduce(raw, m)
		if err != nil {
			b.Fatal(err)
		}
		out[i] = NewEntry(i, raw, rep)
	}
	return out
}

func BenchmarkRTreeInsert(b *testing.B) {
	entries := benchEntries(b, 500, 128, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, _ := NewRTree("SAPLA", 128, 12, 2, 5)
		for _, e := range entries {
			if err := tree.Insert(e); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkDBCHInsert(b *testing.B) {
	entries := benchEntries(b, 500, 128, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, _ := NewDBCH("SAPLA", 2, 5)
		for _, e := range entries {
			if err := tree.Insert(e); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchKNN(b *testing.B, idx Index, entries []*Entry) {
	b.Helper()
	rng := rand.New(rand.NewSource(2))
	meth := core.New()
	for _, e := range entries {
		if err := idx.Insert(e); err != nil {
			b.Fatal(err)
		}
	}
	q := randWalk(rng, 128)
	qr, err := meth.Reduce(q, 12)
	if err != nil {
		b.Fatal(err)
	}
	query := dist.NewQuery(q, qr)
	b.ResetTimer()
	var measured int
	for i := 0; i < b.N; i++ {
		_, stats, err := idx.KNN(query, 8)
		if err != nil {
			b.Fatal(err)
		}
		measured = stats.Measured
	}
	b.ReportMetric(float64(measured)/float64(len(entries)), "rho")
}

func BenchmarkRTreeKNN(b *testing.B) {
	tree, _ := NewRTree("SAPLA", 128, 12, 2, 5)
	benchKNN(b, tree, benchEntries(b, 500, 128, 12))
}

func BenchmarkDBCHKNN(b *testing.B) {
	tree, _ := NewDBCH("SAPLA", 2, 5)
	benchKNN(b, tree, benchEntries(b, 500, 128, 12))
}

func BenchmarkLinearScanKNN(b *testing.B) {
	benchKNN(b, NewLinearScan(), benchEntries(b, 500, 128, 12))
}

// BenchmarkIngestDBCH compares the two ingest paths over the same 500
// entries: per-entry Insert (branch picks, splits, hull rebuilds) against
// InsertBatch (bulk load on an empty tree, pre-reserved arenas otherwise).
func BenchmarkIngestDBCH(b *testing.B) {
	entries := benchEntries(b, 500, 128, 12)
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tree, err := NewDBCH("SAPLA", 2, 5)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range entries {
				if err := tree.Insert(e); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tree, err := NewDBCH("SAPLA", 2, 5)
			if err != nil {
				b.Fatal(err)
			}
			if err := tree.InsertBatch(entries); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompact prices one arena rebuild of a tree fragmented by deleting
// every third entry. Compact always rebuilds when called directly, so the
// steady-state iterations measure exactly the collect-reset-bulkload cycle.
func BenchmarkCompact(b *testing.B) {
	tree, err := NewDBCH("SAPLA", 2, 5)
	if err != nil {
		b.Fatal(err)
	}
	entries := benchEntries(b, 500, 128, 12)
	for _, e := range entries {
		if err := tree.Insert(e); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < len(entries); i += 3 {
		tree.Delete(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Compact()
	}
}

// BenchmarkKNN times one DBCH k-NN search on a warmed workspace;
// TestKNNWithAllocs holds its zero heap allocations.
func BenchmarkKNN(b *testing.B) {
	tree, err := NewDBCH("SAPLA", 2, 5)
	if err != nil {
		b.Fatal(err)
	}
	entries := benchEntries(b, 500, 128, 12)
	for _, e := range entries {
		if err := tree.Insert(e); err != nil {
			b.Fatal(err)
		}
	}
	query := testQueries(b, 1, 128, 12)[0]
	ws := NewWorkspace()
	if _, _, err := tree.KNNWith(ws, query, 8); err != nil { // warm-up
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tree.KNNWith(ws, query, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchKNN compares the batch engine across worker counts. On a
// multi-core host the Workers=GOMAXPROCS case demonstrates the parallel
// speedup; per-answer copies are the only steady-state allocations. The
// sharded4 case is one served batch — 32 queries over servedSharded4 — whose
// worker count follows -cpu.
func BenchmarkBatchKNN(b *testing.B) {
	tree, err := NewDBCH("SAPLA", 2, 5)
	if err != nil {
		b.Fatal(err)
	}
	entries := benchEntries(b, 500, 128, 12)
	for _, e := range entries {
		if err := tree.Insert(e); err != nil {
			b.Fatal(err)
		}
	}
	queries := testQueries(b, 32, 128, 12)
	for _, workers := range []int{1, 0} { // 0 = GOMAXPROCS
		name := "serial"
		if workers == 0 {
			name = "gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := BatchKNN(tree, queries, 8, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("sharded4/1500x1024", func(b *testing.B) {
		sv := servedSharded4(b, 1024)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := BatchKNN(sv.idx, sv.queries[:32], 10, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// mixedSeries draws one z-normalised series from a three-family mixture
// (random walk, noisy seasonal with trend, step levels) — the kind of data
// the served workloads carry, where some queries have close neighbours and
// others none.
func mixedSeries(rng *rand.Rand, family, n int) ts.Series {
	s := make(ts.Series, n)
	switch family % 3 {
	case 0:
		var v float64
		for i := range s {
			v += rng.NormFloat64()
			s[i] = v
		}
	case 1:
		freq, phase := 1+7*rng.Float64(), 2*math.Pi*rng.Float64()
		trend, noise := rng.NormFloat64(), 0.1+0.4*rng.Float64()
		for i := range s {
			t := float64(i) / float64(n)
			s[i] = math.Sin(2*math.Pi*freq*t+phase) + trend*t + noise*rng.NormFloat64()
		}
	default:
		level, next := rng.NormFloat64(), 0
		for i := range s {
			if i == next {
				level = 3 * rng.NormFloat64()
				next = i + n/8 + rng.Intn(n/3)
			}
			s[i] = level + 0.2*rng.NormFloat64()
		}
	}
	return s.ZNormalize()
}

// mixedEntries reduces count mixed-family series under SAPLA. Half of the
// queries drawn by mixedQueries perturb one of them.
func mixedEntries(tb testing.TB, rng *rand.Rand, count, n, m int) []*Entry {
	tb.Helper()
	meth := core.New()
	out := make([]*Entry, count)
	for i := range out {
		raw := mixedSeries(rng, i, n)
		rep, err := meth.Reduce(raw, m)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = NewEntry(i, raw, rep)
	}
	return out
}

func mixedQueries(tb testing.TB, rng *rand.Rand, entries []*Entry, count, m int) []dist.Query {
	tb.Helper()
	meth := core.New()
	n := len(entries[0].Raw)
	out := make([]dist.Query, count)
	for i := range out {
		raw := mixedSeries(rng, i/2, n)
		if i%2 == 0 {
			raw = entries[rng.Intn(len(entries))].Raw.Clone()
			noise := 0.1 + 0.3*rng.Float64()
			for j := range raw {
				raw[j] += noise * rng.NormFloat64()
			}
			raw = raw.ZNormalize()
		}
		rep, err := meth.Reduce(raw, m)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = dist.NewQuery(raw, rep)
	}
	return out
}

// lowerBoundsGo is ts's pure-Go envelope loop: the kernel LowerBounds runs
// where no assembly one exists, and the reference the amd64 kernel is held
// to bit for bit. BenchmarkFlatFilter's rows/go row times it.
//
//go:linkname lowerBoundsGo sapla/internal/ts.lowerBoundsGo
func lowerBoundsGo(e *ts.Envelope, rows, slack []float32, out []float64)

// BenchmarkFlatFilter times the filter stage of the flat tier alone, at the
// two shapes the end-to-end benchmark serves per shard: "rows" is
// Flat.filterSlots' envelope kernel (ts.Envelope.LowerBounds), the query's
// envelope included; "rows/go" the same sweep through ts's pure-Go loop,
// which the kernel replaces on amd64; "parflat" is Dist_PAR (M = 12) by
// dist.PARFlat's merge loop once per row, the filter the tier served before
// the envelope, as the reference.
func BenchmarkFlatFilter(b *testing.B) {
	for _, shape := range []struct{ count, n int }{{6000, 256}, {1500, 1024}} {
		rng := rand.New(rand.NewSource(17))
		entries := mixedEntries(b, rng, shape.count, shape.n, 12)
		queries := mixedQueries(b, rng, entries, 64, 12)
		flats := make([]*dist.FlatLinear, len(entries))
		flat := NewFlat()
		for i, e := range entries {
			flats[i] = dist.FlattenLinear(e.Rep)
			if err := flat.Insert(e); err != nil {
				b.Fatal(err)
			}
		}
		out := make([]float64, len(entries))
		perRow := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(entries)), "ns/row")
		}
		name := fmt.Sprintf("%dx%d", shape.count, shape.n)
		b.Run(name+"/rows", func(b *testing.B) {
			ws := NewWorkspace()
			for i := 0; i < b.N; i++ {
				sweepRows(b, flat, ws, queries[i%len(queries)], out)
			}
			perRow(b)
		})
		b.Run(name+"/rows/go", func(b *testing.B) {
			ws := NewWorkspace()
			for i := 0; i < b.N; i++ {
				env, err := flat.queryEnvelope(ws, queries[i%len(queries)])
				if err != nil {
					b.Fatal(err)
				}
				for lo := 0; lo < len(out); lo += flatRows {
					blk := &flat.blocks[lo/flatRows]
					lowerBoundsGo(env, blk.env, blk.slack, out[lo:min(lo+flatRows, len(out))])
				}
			}
			perRow(b)
		})
		b.Run(name+"/parflat", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)].Flat
				for s, c := range flats {
					out[s] = dist.PARFlat(q, c)
				}
			}
			perRow(b)
		})
	}
}

// servedPair builds the two candidates for a shard's index at the size the
// end-to-end benchmark serves — 6000 × 256, M = 12, loaded in batches of 250:
// the DBCH-tree under the triangle-safe bound, and the flat tier.
func servedPair(b *testing.B) (map[string]Index, []dist.Query) {
	b.Helper()
	rng := rand.New(rand.NewSource(16))
	entries := mixedEntries(b, rng, 6000, 256, 12)
	tree, err := NewDBCH("SAPLA", 2, 5)
	if err != nil {
		b.Fatal(err)
	}
	tree.SafeBound = true
	flat := NewFlat()
	for lo := 0; lo < len(entries); lo += 250 {
		if err := tree.InsertBatch(entries[lo : lo+250]); err != nil {
			b.Fatal(err)
		}
		// The flat tier takes its entries over; the tree keeps its own.
		own := make([]*Entry, 250)
		for i, e := range entries[lo : lo+250] {
			own[i] = NewEntry(e.ID, e.Raw, e.Rep)
		}
		if err := flat.InsertBatch(own); err != nil {
			b.Fatal(err)
		}
	}
	return map[string]Index{"dbch": tree, "flat": flat}, mixedQueries(b, rng, entries, 64, 12)
}

// sharded4 caches servedSharded4's indexes across benchmarks and -cpu rounds,
// one per series length: reducing 6000 long series is the expensive part.
var sharded4 struct {
	sync.Mutex
	byN map[int]*servedLong
}

// servedLong is one of servedSharded4's indexes, its queries, and each
// query's range radius.
type servedLong struct {
	idx     *ShardedIndex
	queries []dist.Query
	radii   []float64
}

// servedSharded4 is rw_long_4shard's index without the server: four flat
// shards of 1500 series of n points (M = 12; BenchmarkFlatFilter's long
// per-shard shape at n = 1024) behind the scatter-gather, and 64 queries
// against them. A query's radius is its 10th exact distance, the radius the
// served range workload sends.
func servedSharded4(b *testing.B, n int) *servedLong {
	b.Helper()
	sharded4.Lock()
	defer sharded4.Unlock()
	if sv := sharded4.byN[n]; sv != nil {
		return sv
	}
	rng := rand.New(rand.NewSource(17))
	entries := mixedEntries(b, rng, 4*1500, n, 12)
	scan := &LinearScan{entries: entries}
	sv := &servedLong{idx: newShardedFlat(b, 4)}
	if err := sv.idx.InsertBatch(entries); err != nil {
		b.Fatal(err)
	}
	sv.queries = mixedQueries(b, rng, entries, 64, 12)
	for _, q := range sv.queries {
		top, _, err := scan.KNN(q, 10)
		if err != nil {
			b.Fatal(err)
		}
		sv.radii = append(sv.radii, top[len(top)-1].Dist)
	}
	if sharded4.byN == nil {
		sharded4.byN = map[int]*servedLong{}
	}
	sharded4.byN[n] = sv
	return sv
}

// BenchmarkServedKNN is the search-kernel delta without the HTTP harness:
// filter/op and refine/op are the two counts a k-NN change moves. The
// sharded4 rows run through ShardedIndex.KNNWith, so their refine/op is what
// pruning every shard from the one answer set's worst saves over four
// independent searches.
func BenchmarkServedKNN(b *testing.B) {
	idxs, queries := servedPair(b)
	run := func(name string, idx Index, queries []dist.Query) {
		b.Run(name, func(b *testing.B) {
			ws := NewWorkspace()
			var st SearchStats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, s, err := idx.KNNWith(ws, queries[i%len(queries)], 10)
				if err != nil {
					b.Fatal(err)
				}
				st.Add(s)
			}
			b.ReportMetric(float64(st.Filtered)/float64(b.N), "filter/op")
			b.ReportMetric(float64(st.Measured)/float64(b.N), "refine/op")
		})
	}
	for _, name := range []string{"dbch", "flat"} {
		run(name, idxs[name], queries)
	}
	long := servedSharded4(b, 1024)
	run("sharded4/1500x1024", long.idx, long.queries)
	mid := servedSharded4(b, 512)
	run("4x1500x512", mid.idx, mid.queries)
}

// BenchmarkServedRange is the range twin. On the 256-point pair the radius,
// 8, admits a handful of answers for the perturbed queries and none for the
// fresh ones; the sharded rows send each query its 10th exact distance, as the
// served range workload does.
func BenchmarkServedRange(b *testing.B) {
	idxs, queries := servedPair(b)
	for _, name := range []string{"dbch", "flat"} {
		idx := idxs[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := idx.Range(queries[i%len(queries)], 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, row := range []struct {
		name string
		n    int
	}{{"sharded4/1500x1024", 1024}, {"4x1500x512", 512}} {
		sv := servedSharded4(b, row.n)
		b.Run(row.name, func(b *testing.B) {
			var st SearchStats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				qi := i % len(sv.queries)
				_, s, err := sv.idx.Range(sv.queries[qi], sv.radii[qi])
				if err != nil {
					b.Fatal(err)
				}
				st.Add(s)
			}
			b.ReportMetric(float64(st.Measured)/float64(b.N), "refine/op")
		})
	}
}
