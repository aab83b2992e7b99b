package index

import (
	"fmt"
	"math"
	"testing"

	"sapla/internal/dist"
	"sapla/internal/ts"
)

// shardFlats returns the flat tier behind every shard of idx.
func shardFlats(t *testing.T, idx *ShardedIndex) []*Flat {
	t.Helper()
	flats := make([]*Flat, idx.NumShards())
	for i := range flats {
		f, ok := idx.Shard(i).inner.(*Flat)
		if !ok {
			t.Fatalf("shard %d is a %T, not a flat tier", i, idx.Shard(i).inner)
		}
		flats[i] = f
	}
	return flats
}

// checkEnvelopes requires every live row that keeps an envelope to hold
// exactly the float32 rounding of its own series' ts.ChunkEnvelope values —
// after inserts, swap-remove deletes and slot reuse — and returns how many
// rows keep one.
func checkEnvelopes(t *testing.T, f *Flat) int {
	t.Helper()
	rows := 0
	f.Each(func(e *Entry) {
		m, rho, ok := f.Envelope(e.ID)
		if !ok {
			return
		}
		rows++
		for j := range m {
			wm, wr := ts.ChunkEnvelope(e.Raw[j*ts.EnvelopeChunk : min((j+1)*ts.EnvelopeChunk, len(e.Raw))])
			if math.Float32bits(m[j]) != math.Float32bits(float32(wm)) || math.Float32bits(rho[j]) != math.Float32bits(float32(wr)) {
				t.Fatalf("id %d chunk %d: envelope (%v, %v), its series gives (%v, %v)", e.ID, j, m[j], rho[j], float32(wm), float32(wr))
			}
		}
	})
	return rows
}

// envelopeRun is everything one pass of searches returns.
type envelopeRun struct {
	knn, batch, rng                [][]Result
	knnStats, batchStats, rngStats []SearchStats
}

// searchAll answers every query through the hand-off k-NN (KNNWith on one
// workspace), the batch engine and the range search.
func searchAll(t *testing.T, idx *ShardedIndex, queries []dist.Query, k int, radii []float64) envelopeRun {
	t.Helper()
	var run envelopeRun
	ws := NewWorkspace()
	for i, q := range queries {
		res, st, err := idx.KNNWith(ws, q, k)
		if err != nil {
			t.Fatal(err)
		}
		run.knn, run.knnStats = append(run.knn, append([]Result(nil), res...)), append(run.knnStats, st)
		res, st, err = idx.Range(q, radii[i])
		if err != nil {
			t.Fatal(err)
		}
		run.rng, run.rngStats = append(run.rng, res), append(run.rngStats, st)
	}
	var err error
	if run.batch, run.batchStats, err = BatchKNN(idx, queries, k, 3); err != nil {
		t.Fatal(err)
	}
	return run
}

// TestFlatEnvelopeAnswersIdentical: the chunk envelope only ends
// refinements that could not enter an answer. Over random insert / delete
// sequences — swap-remove carries envelope rows from slot to slot — every
// k-NN (the shard hand-off), batch and range answer, its distance bits and
// its Measured count equal what the same index returns with its envelopes
// switched off, i.e. every refinement on today's ts.EuclideanSqAbandon. At
// 256 points no row keeps an envelope and nothing is dismissed; at 512, 1000
// (a 40-point last chunk) and 1024 the envelope dismisses.
func TestFlatEnvelopeAnswersIdentical(t *testing.T) {
	for _, n := range []int{256, 512, 1000, 1024} {
		for _, shards := range []int{1, 4, 7} {
			t.Run(fmt.Sprintf("n=%d/shards=%d", n, shards), func(t *testing.T) {
				m := newFlatModel(t, "SAPLA", int64(10*n+shards))
				m.n = n
				idx := newShardedFlat(t, shards)
				flats := shardFlats(t, idx)
				dismissed := 0
				for round := 0; round < 24; round++ {
					batch := make([]*Entry, 8+m.rng.Intn(10))
					for i := range batch {
						m.next++
						batch[i] = m.entry(m.next)
					}
					if err := idx.InsertBatch(batch); err != nil {
						t.Fatal(err)
					}
					for _, e := range batch {
						m.live[e.ID] = e
						m.ids = append(m.ids, e.ID)
					}
					for d := m.rng.Intn(5); d > 0; d-- {
						id := m.ids[m.rng.Intn(len(m.ids))]
						if _, alive := m.live[id]; alive != idx.Delete(id) {
							t.Fatalf("round %d: Delete(%d) disagrees with the model", round, id)
						}
						delete(m.live, id)
					}
					if round%4 != 3 {
						continue
					}
					rows := 0
					for _, f := range flats {
						rows += checkEnvelopes(t, f)
					}
					want := len(m.live)
					if n < 512 {
						want = 0
					}
					if rows != want {
						t.Fatalf("round %d: %d rows keep an envelope, want %d", round, rows, want)
					}
					queries := make([]dist.Query, 6)
					radii := make([]float64, len(queries))
					for i := range queries {
						queries[i] = m.query()
						near, _, _ := m.scan().KNN(queries[i], 6)
						radii[i] = near[len(near)-1].Dist
					}
					k := []int{1, 5, 10}[round%3]
					got := searchAll(t, idx, queries, k, radii)
					saved := make([]int, len(flats))
					for i, f := range flats {
						saved[i], f.chunks = f.chunks, 0
					}
					plain := searchAll(t, idx, queries, k, radii)
					for i, f := range flats {
						f.chunks = saved[i]
					}
					for qi, q := range queries {
						label := fmt.Sprintf("round %d query %d", round, qi)
						identicalResults(t, label+" knn", got.knn[qi], plain.knn[qi])
						identicalResults(t, label+" batch", got.batch[qi], plain.batch[qi])
						identicalResults(t, label+" range", got.rng[qi], plain.rng[qi])
						m.valid(label, q, got.knn[qi])
						for _, pair := range [][2]SearchStats{
							{got.knnStats[qi], plain.knnStats[qi]},
							{got.batchStats[qi], plain.batchStats[qi]},
							{got.rngStats[qi], plain.rngStats[qi]},
						} {
							g, w := pair[0], pair[1]
							if w.Dismissed != 0 || g.Dismissed > g.Measured {
								t.Fatalf("%s: dismissed %d of %d measured, %d without envelopes", label, g.Dismissed, g.Measured, w.Dismissed)
							}
							g.Dismissed = 0
							if g != w {
								t.Fatalf("%s: stats %+v, without envelopes %+v", label, g, w)
							}
						}
						dismissed += got.knnStats[qi].Dismissed + got.rngStats[qi].Dismissed
					}
				}
				t.Logf("%d refinements dismissed", dismissed)
				if (n >= 512) != (dismissed > 0) {
					t.Fatalf("%d refinements dismissed at n = %d", dismissed, n)
				}
			})
		}
	}
}
