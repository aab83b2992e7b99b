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

// checkEnvelopes requires every live row to hold exactly its own series'
// ts.EnvelopeRow vector and slack — after inserts, swap-remove deletes and
// slot reuse — and returns how many rows it checked.
func checkEnvelopes(t *testing.T, f *Flat) int {
	t.Helper()
	rows := 0
	want := make([]float32, ts.EnvelopeWidth)
	f.Each(func(e *Entry) {
		v, slack, ok := f.Envelope(e.ID)
		if !ok {
			t.Fatalf("id %d is live but keeps no envelope", e.ID)
		}
		rows++
		ws := ts.EnvelopeRow(e.Raw, want)
		if math.Float32bits(slack) != math.Float32bits(ws) {
			t.Fatalf("id %d: slack %v, its series gives %v", e.ID, slack, ws)
		}
		for j := range v {
			if math.Float32bits(v[j]) != math.Float32bits(want[j]) {
				t.Fatalf("id %d value %d: envelope %v, its series gives %v", e.ID, j, v[j], want[j])
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

// TestFlatEnvelopeAnswersIdentical: the flat tier answers as the linear scan
// does, and the chunk envelope only ends refinements that could not enter an
// answer. Over random insert / delete sequences — swap-remove carries
// envelope rows from slot to slot — every k-NN (the shard hand-off), batch
// and range answer equals the scan's to the distance bit, and it, its
// Measured count and the scan identity hold with the envelope abandon
// switched off too (every refinement on ts.EuclideanSqAbandon). The filter
// prunes at every length; below envelopeAbandonMin nothing is dismissed, and
// 17 points leave most of the 16 chunks empty.
func TestFlatEnvelopeAnswersIdentical(t *testing.T) {
	for _, n := range []int{17, 256, 512, 1000, 1024} {
		for _, shards := range []int{1, 4, 7} {
			t.Run(fmt.Sprintf("n=%d/shards=%d", n, shards), func(t *testing.T) {
				m := newFlatModel(t, "SAPLA", int64(10*n+shards))
				m.n = n
				idx := newShardedFlat(t, shards)
				flats := shardFlats(t, idx)
				filtered, measured, dismissed := 0, 0, 0
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
					if rows != len(m.live) {
						t.Fatalf("round %d: %d rows keep an envelope, %d live", round, rows, len(m.live))
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
					saved := make([]bool, len(flats))
					for i, f := range flats {
						saved[i], f.abandon = f.abandon, false
					}
					plain := searchAll(t, idx, queries, k, radii)
					for i, f := range flats {
						f.abandon = saved[i]
					}
					for qi, q := range queries {
						label := fmt.Sprintf("round %d query %d", round, qi)
						scanKNN, _, _ := m.scan().KNN(q, k)
						scanRange, _, _ := m.scan().Range(q, radii[qi])
						for _, run := range []envelopeRun{got, plain} {
							identicalResults(t, label+" knn", run.knn[qi], scanKNN)
							identicalResults(t, label+" batch", run.batch[qi], scanKNN)
							identicalResults(t, label+" range", run.rng[qi], scanRange)
						}
						for _, pair := range [][2]SearchStats{
							{got.knnStats[qi], plain.knnStats[qi]},
							{got.batchStats[qi], plain.batchStats[qi]},
							{got.rngStats[qi], plain.rngStats[qi]},
						} {
							g, w := pair[0], pair[1]
							if w.Dismissed != 0 || g.Dismissed > g.Measured || (n < envelopeAbandonMin && g.Dismissed != 0) {
								t.Fatalf("%s: dismissed %d of %d measured, %d without the envelope abandon", label, g.Dismissed, g.Measured, w.Dismissed)
							}
							g.Dismissed = 0
							if g != w {
								t.Fatalf("%s: stats %+v, without the envelope abandon %+v", label, g, w)
							}
							filtered, measured = filtered+g.Filtered, measured+g.Measured
						}
						dismissed += got.knnStats[qi].Dismissed + got.rngStats[qi].Dismissed
					}
				}
				t.Logf("%d of %d filtered rows refined, %d refinements dismissed", measured, filtered, dismissed)
				if measured >= filtered {
					t.Fatalf("the filter pruned nothing: %d of %d rows refined", measured, filtered)
				}
			})
		}
	}
}
