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
// does. Over random insert / delete sequences — swap-remove carries envelope
// rows from slot to slot — every k-NN (the shard hand-off), batch and range
// answer equals the scan's to the distance bit, and the k-NN and the batch
// refine the same rows. The filter prunes at every length; 17 points make
// five 3-point chunks, a ragged 2-point one and two empty ones.
func TestFlatEnvelopeAnswersIdentical(t *testing.T) {
	for _, n := range []int{17, 256, 512, 1000, 1024} {
		for _, shards := range []int{1, 4, 7} {
			t.Run(fmt.Sprintf("n=%d/shards=%d", n, shards), func(t *testing.T) {
				m := newFlatModel(t, "SAPLA", int64(10*n+shards))
				m.n = n
				idx := newShardedFlat(t, shards)
				flats := shardFlats(t, idx)
				filtered, measured := 0, 0
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
					for qi, q := range queries {
						label := fmt.Sprintf("round %d query %d", round, qi)
						scanKNN, _, _ := m.scan().KNN(q, k)
						scanRange, _, _ := m.scan().Range(q, radii[qi])
						identicalResults(t, label+" knn", got.knn[qi], scanKNN)
						identicalResults(t, label+" batch", got.batch[qi], scanKNN)
						identicalResults(t, label+" range", got.rng[qi], scanRange)
						if got.knnStats[qi] != got.batchStats[qi] {
							t.Fatalf("%s: k-NN stats %+v, batch stats %+v", label, got.knnStats[qi], got.batchStats[qi])
						}
						for _, st := range []SearchStats{got.knnStats[qi], got.rngStats[qi]} {
							filtered, measured = filtered+st.Filtered, measured+st.Measured
						}
					}
				}
				t.Logf("%d of %d filtered rows refined", measured, filtered)
				if measured >= filtered {
					t.Fatalf("the filter pruned nothing: %d of %d rows refined", measured, filtered)
				}
			})
		}
	}
}
