package index

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"sapla/internal/dist"
	"sapla/internal/ts"
)

// bitIdentical reports whether two result lists agree exactly: same length,
// same IDs in the same order, and Float64bits-identical distances.
func bitIdentical(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Entry.ID != b[i].Entry.ID ||
			math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return false
		}
	}
	return true
}

func cloneResults(res []Result) []Result {
	out := make([]Result, len(res))
	copy(out, res)
	return out
}

// TestStressCompactInsertVsReaders races Compact and InsertBatch against
// readers over both inner types — the DBCH-tree and the served Flat tier —
// at shard counts {1, 4, 7}, asserting three things: per-shard epochs never
// regress, every mid-churn answer is internally sound (canonically ordered,
// duplicate-free, each reported distance consistent with the returned
// entry's raw series), and the post-quiesce answers are Float64bits-identical
// to a fresh single-shard index holding the same final contents — the
// canonical-merge determinism the sharded gather promises for any shard
// count.
func TestStressCompactInsertVsReaders(t *testing.T) {
	inners := []struct {
		name string
		new  func(int) (Index, error)
	}{
		{"DBCH", func(int) (Index, error) {
			tree, err := NewDBCH("SAPLA", 2, 5)
			if err != nil {
				return nil, err
			}
			tree.SafeBound = true
			return tree, nil
		}},
		{"Flat", func(int) (Index, error) { return NewFlat(), nil }},
	}
	for _, inner := range inners {
		for _, shards := range []int{1, 4, 7} {
			t.Run(fmt.Sprintf("%s/shards=%d", inner.name, shards), func(t *testing.T) {
				const (
					n     = 64
					m     = 12
					coreN = 40
					chrnN = 24
					k     = 9
				)
				rng := rand.New(rand.NewSource(int64(900 + shards)))
				meth := buildMethod(t, "SAPLA")
				core := makeEntries(t, meth, rng, coreN, n, m)
				churn := make([]*Entry, chrnN)
				for i := range churn {
					raw := randWalk(rng, n)
					rep, err := meth.Reduce(raw, m)
					if err != nil {
						t.Fatal(err)
					}
					churn[i] = NewEntry(5000+i, raw, rep)
				}

				si, err := NewSharded(shards, inner.new)
				if err != nil {
					t.Fatal(err)
				}
				if err := si.InsertBatch(core); err != nil {
					t.Fatal(err)
				}

				queries := make([]dist.Query, 4)
				for i := range queries {
					raw := randWalk(rng, n)
					rep, err := meth.Reduce(raw, m)
					if err != nil {
						t.Fatal(err)
					}
					queries[i] = dist.NewQuery(raw, rep)
				}

				var stop atomic.Bool
				var wg sync.WaitGroup

				// Writer: churn batches in and out, compacting every cycle
				// so readers race arena rebuilds as well as inserts and
				// deletes (Compact is a no-op on Flat, which never
				// fragments).
				wg.Add(1)
				go func() {
					defer wg.Done()
					for cycle := 0; cycle < 25 && !stop.Load(); cycle++ {
						if err := si.InsertBatch(churn); err != nil {
							t.Error(err)
							return
						}
						si.Compact(0)
						for _, e := range churn {
							if !si.Delete(e.ID) {
								t.Errorf("cycle %d: delete %d failed", cycle, e.ID)
								return
							}
						}
						si.Compact(0)
					}
				}()

				// Readers: hammer k-NN on every query, checking per-shard
				// epoch monotonicity and answer soundness on every
				// observation.
				for r := 0; r < 3; r++ {
					wg.Add(1)
					go func(seed int) {
						defer wg.Done()
						ws := NewWorkspace()
						lastEpoch := make([]uint64, shards)
						for it := 0; it < 400; it++ {
							q := queries[(seed+it)%len(queries)]
							res, _, err := si.KNNWith(ws, q, k)
							if err != nil {
								t.Error(err)
								return
							}
							checkSound(t, q, res)
							for siIdx := 0; siIdx < shards; siIdx++ {
								e := si.Shard(siIdx).Epoch()
								if e < lastEpoch[siIdx] {
									t.Errorf("shard %d epoch regressed: %d -> %d", siIdx, lastEpoch[siIdx], e)
									return
								}
								lastEpoch[siIdx] = e
							}
						}
					}(r)
				}
				wg.Wait()
				stop.Store(true)
				if t.Failed() {
					return
				}

				// Quiesce and compare: the sharded answers must be
				// bit-identical to a fresh single-shard index loaded with
				// the same final contents (the core set — every churn cycle
				// fully unwinds).
				if got := si.Len(); got != coreN {
					t.Fatalf("post-churn Len = %d, want %d", got, coreN)
				}
				ref, err := NewSharded(1, inner.new)
				if err != nil {
					t.Fatal(err)
				}
				if err := ref.InsertBatch(core); err != nil {
					t.Fatal(err)
				}
				ws := NewWorkspace()
				for qi, q := range queries {
					got, _, err := si.KNNWith(ws, q, k)
					if err != nil {
						t.Fatal(err)
					}
					gotC := cloneResults(got)
					want, _, err := ref.KNNWith(ws, q, k)
					if err != nil {
						t.Fatal(err)
					}
					if !bitIdentical(gotC, want) {
						t.Fatalf("query %d: quiesced %d-shard answers diverge from single-shard reference:\n got %v\nwant %v", qi, shards, gotC, want)
					}
				}
			})
		}
	}
}

// checkSound verifies one mid-churn answer set is internally consistent:
// sorted by the canonical (distance, ID) order, duplicate-free, and every
// reported distance consistent with the returned entry's raw series — a
// search that overlapped a mutation would break one of these long before it
// segfaults.
func checkSound(t *testing.T, q dist.Query, res []Result) {
	t.Helper()
	seen := make(map[int]bool, len(res))
	for i, r := range res {
		if i > 0 {
			prev := res[i-1]
			if r.Dist < prev.Dist || (r.Dist == prev.Dist && r.Entry.ID <= prev.Entry.ID) { //sapla:floateq canonical (distance, ID) order is defined on exact float equality
				t.Errorf("results out of canonical order at %d: (%g,%d) after (%g,%d)", i, r.Dist, r.Entry.ID, prev.Dist, prev.Entry.ID)
				return
			}
		}
		if seen[r.Entry.ID] {
			t.Errorf("duplicate id %d in gather", r.Entry.ID)
			return
		}
		seen[r.Entry.ID] = true
		exact := math.Sqrt(ts.EuclideanSq(q.Raw, r.Entry.Raw))
		if math.Abs(exact-r.Dist) > 1e-9 {
			t.Errorf("id %d: reported dist %g, exact %g (torn read?)", r.Entry.ID, r.Dist, exact)
			return
		}
	}
}
