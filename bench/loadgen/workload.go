package main

import (
	"fmt"
	"math/rand"
	"strconv"
)

// spec is one workload: the data shape, the server's shard count and the
// fixed request lists every round replays.
type spec struct {
	name   string
	n      int // base series, bulk-loaded during set-up
	length int
	shards int

	knn       int // distinct single k-NN queries per round
	ranges    int // distinct range queries per round (a prefix of the k-NN queries)
	batches   int // /v1/knn/batch requests per round
	ingests   int // distinct single ingests per round, deleted again in the same round
	batchIngs int // /v1/ingest/batch requests per round

	rounds int // how often a run replays the lists; fills the span on a host at its usual speed

	// raceInTrace makes the traced run's child-process half play the read
	// lists and the write lists at the same time on two connections, which
	// is what moves the read-retry, reclaim and throttle counters. The
	// untraced run, whose figures are gated, always plays one request at a
	// time: on two cores a reader, a writer and a four-shard fan-out at once
	// measure the scheduler (NOISE.md).
	raceInTrace bool
}

const (
	knnK          = 10
	batchQueries  = 32  // queries per /v1/knn/batch request
	batchIngSize  = 128 // series per /v1/ingest/batch request in a round
	loadBatchSize = 250 // series per bulk-load request (server limit 256)
	restarts      = 8   // SIGKILL / restart cycles per run
	setups        = 3   // bulk loads per run; setup_s is their median
	minRounds     = 8   // a run on a slow host stops at the span's end, but not before these
)

// workloads are the benchmark's traffic mixes. See README.md for why each
// exists and which layer dominates it. The round counts are sized for the
// 50 s span BENCHMARK.json asks for.
var workloads = []spec{
	{name: "search_1shard", n: 6000, length: 256, shards: 1,
		knn: 200, ranges: 60, batches: 6, ingests: 100, batchIngs: 1, rounds: 44},
	{name: "rw_long_4shard", n: 6000, length: 1024, shards: 4,
		knn: 200, ranges: 60, batches: 4, ingests: 120, batchIngs: 1,
		raceInTrace: true, rounds: 35},
	// search_4shard is search_1shard's bytes on four shards. The driver's
	// time allows two workloads at a span that keeps them steady, so this
	// one is not listed in BENCHMARK.json; it runs by hand like the others.
	{name: "search_4shard", n: 6000, length: 256, shards: 4,
		knn: 200, ranges: 60, batches: 6, ingests: 100, batchIngs: 1, rounds: 44},
	// smoke is the unit tests' few-second pass through the real child
	// process.
	{name: "smoke", n: 600, length: 64, shards: 2,
		knn: 24, ranges: 8, batches: 1, ingests: 10, batchIngs: 1,
		raceInTrace: true, rounds: 3},
}

func findSpec(name string) (spec, error) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// writes is how many distinct series one round ingests and deletes again.
func (sp spec) writes() int { return sp.ingests + sp.batchIngs*batchIngSize }

// inputs is everything generated from the seed: the data, the oracle's
// answers and the pre-encoded request lists.
type inputs struct {
	spec    spec
	data    [][]float64
	queries [][]float64
	written [][]float64 // series the write lists ingest; IDs n, n+1, …
	oracle  *oracle

	load      []request // bulk load, loadBatchSize series each
	knn       []request
	ranges    []request
	batches   []request
	ingests   []request
	batchIngs []request
	deletes   []request // one per written series, in ingest order
}

func appendValues(b []byte, s []float64) []byte {
	b = append(b, `"values":[`...)
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, ']')
}

// ingestBatchBody encodes series[lo:hi] with explicit IDs firstID+lo, ….
func ingestBatchBody(series [][]float64, lo, hi, firstID int) []byte {
	b := []byte(`{"series":[`)
	for i := lo; i < hi; i++ {
		if i > lo {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(firstID+i), 10)
		b = append(b, ',')
		b = appendValues(b, series[i])
		b = append(b, '}')
	}
	return append(b, `]}`...)
}

// makeInputs generates the workload for seed. The same seed gives the same
// bytes on the wire.
func makeInputs(sp spec, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{spec: sp}
	in.data = genDataset(rng, sp.n, sp.length)
	in.queries = genQueries(rng, in.data, sp.knn)
	// Written series are perturbed stored series too, so they land inside
	// populated leaves and do compete for the queries' top-k.
	in.written = genQueries(rng, in.data, sp.writes())

	in.oracle = newOracle(in.data, in.written, in.queries, knnK)

	for lo := 0; lo < sp.n; lo += loadBatchSize {
		hi := min(lo+loadBatchSize, sp.n)
		in.load = append(in.load, request{"POST", "/v1/ingest/batch", ingestBatchBody(in.data, lo, hi, 0), 201})
	}
	for qi, q := range in.queries {
		b := appendValues([]byte(`{`), q)
		in.knn = append(in.knn, request{"POST", "/v1/knn", append(b, fmt.Sprintf(`,"k":%d}`, knnK)...), 200})
		if qi < sp.ranges {
			b := appendValues([]byte(`{`), q)
			b = append(b, `,"radius":`...)
			b = strconv.AppendFloat(b, in.oracle.truths[qi].radius, 'g', -1, 64)
			in.ranges = append(in.ranges, request{"POST", "/v1/range", append(b, '}'), 200})
		}
	}
	for bi := 0; bi < sp.batches; bi++ {
		b := []byte(fmt.Sprintf(`{"k":%d,"queries":[`, knnK))
		for j := 0; j < batchQueries; j++ {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendValues(append(b, '{'), in.queries[in.batchQuery(bi, j)])
			b = append(b, '}')
		}
		in.batches = append(in.batches, request{"POST", "/v1/knn/batch", append(b, `]}`...), 200})
	}
	for i := 0; i < sp.ingests; i++ {
		b := appendValues([]byte(fmt.Sprintf(`{"id":%d,`, sp.n+i)), in.written[i])
		in.ingests = append(in.ingests, request{"POST", "/v1/ingest", append(b, '}'), 201})
	}
	for bi := 0; bi < sp.batchIngs; bi++ {
		lo := sp.ingests + bi*batchIngSize
		in.batchIngs = append(in.batchIngs, request{"POST", "/v1/ingest/batch",
			ingestBatchBody(in.written, lo, lo+batchIngSize, sp.n), 201})
	}
	for i := range in.written {
		in.deletes = append(in.deletes, request{"DELETE", fmt.Sprintf("/v1/series/%d", sp.n+i), nil, 200})
	}
	return in
}

// batchQuery maps slot j of batch request bi to a query index. Batches
// reuse the single-query list, so one oracle pass covers both and a batch's
// per-query cost compares with the same queries sent one at a time.
func (in *inputs) batchQuery(bi, j int) int {
	return (bi*batchQueries + j) % len(in.queries)
}
