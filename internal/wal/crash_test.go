package wal

import (
	"math"
	"math/rand"
	"testing"
)

// crashOp is one logical mutation in a property-test trial.
type crashOp struct {
	del    bool
	id     int64
	values []float64
}

// stateAfter returns the state after the first p ops.
func stateAfter(ops []crashOp, p int) map[int64][]float64 {
	state := map[int64][]float64{}
	for _, op := range ops[:p] {
		if op.del {
			delete(state, op.id)
		} else {
			state[op.id] = op.values
		}
	}
	return state
}

// equalState compares a recovered []Series against a reference map
// bit-for-bit.
func equalState(series []Series, ref map[int64][]float64) bool {
	if len(series) != len(ref) {
		return false
	}
	for _, s := range series {
		want, ok := ref[s.ID]
		if !ok || len(want) != len(s.Values) {
			return false
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(s.Values[i]) {
				return false
			}
		}
	}
	return true
}

// TestCrashRecoveryProperty drives random interleavings of
// ingest/delete/sync/rotate+snapshot against the in-memory filesystem, then
// crashes at a random moment with a random torn tail, recovers, and checks
// the prefix-consistency contract:
//
//   - the recovered state equals the state after some prefix of the applied
//     ops (a WAL replays history in order — it can lose a suffix to the
//     crash, never reorder or invent records), and
//   - that prefix covers at least every op whose record had been fsync'd,
//     i.e. no acknowledged-and-synced write is ever lost.
//
// With SyncEvery=1 (half the trials) this collapses to exact equality with
// everything acknowledged. Larger group-commit batches leave a documented
// window of acknowledged-but-unsynced records, which is precisely the
// suffix the prefix rule permits.
func TestCrashRecoveryProperty(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 12
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		syncEvery := 1 + (trial%2)*(1+rng.Intn(4)) // 1, or 2..5
		mem := NewMemFS()
		st, series, _, err := Open(mem, Options{SyncEvery: syncEvery})
		if err != nil {
			t.Fatalf("trial %d: open: %v", trial, err)
		}
		if len(series) != 0 {
			t.Fatalf("trial %d: fresh store has %d series", trial, len(series))
		}

		var ops []crashOp // acknowledged mutations, in order
		synced := 0       // ops covered by the last fsync (or snapshot)
		nextID := int64(0)
		nOps := 5 + rng.Intn(60)
		for i := 0; i < nOps; i++ {
			switch r := rng.Intn(20); {
			case r < 12: // ingest a fresh series
				v := walk(rng, 4+rng.Intn(24))
				if err := st.AppendIngest(nextID, v); err != nil {
					t.Fatalf("trial %d op %d: ingest: %v", trial, i, err)
				}
				ops = append(ops, crashOp{id: nextID, values: v})
				nextID++
			case r < 15: // re-ingest (overwrite) an existing id
				if nextID == 0 {
					continue
				}
				id := rng.Int63n(nextID)
				v := walk(rng, 4+rng.Intn(24))
				if err := st.AppendIngest(id, v); err != nil {
					t.Fatalf("trial %d op %d: re-ingest: %v", trial, i, err)
				}
				ops = append(ops, crashOp{id: id, values: v})
			case r < 18: // delete (possibly a missing id; replay is a no-op)
				if nextID == 0 {
					continue
				}
				id := rng.Int63n(nextID + 2)
				if err := st.AppendDelete(id); err != nil {
					t.Fatalf("trial %d op %d: delete: %v", trial, i, err)
				}
				ops = append(ops, crashOp{del: true, id: id})
			case r < 19: // explicit group-commit flush
				if err := st.Sync(); err != nil {
					t.Fatalf("trial %d op %d: sync: %v", trial, i, err)
				}
				synced = len(ops)
			default: // rotate + snapshot
				sealed, err := st.Rotate()
				if err != nil {
					t.Fatalf("trial %d op %d: rotate: %v", trial, i, err)
				}
				synced = len(ops) // rotation seals with an fsync
				if err := st.WriteSnapshot(sealed, toSorted(stateAfter(ops, len(ops)))); err != nil {
					t.Fatalf("trial %d op %d: snapshot: %v", trial, i, err)
				}
			}
			if st.Unsynced() == 0 {
				synced = len(ops)
			}
		}

		// Crash: no Close, page cache keeps a random prefix of whatever was
		// not fsync'd (torn tail).
		mem.Crash(func(name string, pending int) int { return rng.Intn(pending + 1) })

		_, recovered, info, err := Open(mem, Options{})
		if err != nil {
			t.Fatalf("trial %d: recovery: %v", trial, err)
		}

		match := -1
		for p := len(ops); p >= synced; p-- {
			if equalState(recovered, stateAfter(ops, p)) {
				match = p
				break
			}
		}
		if match < 0 {
			t.Fatalf("trial %d (syncEvery=%d): recovered state matches no prefix in [%d, %d] of %d ops (info %+v)",
				trial, syncEvery, synced, len(ops), len(ops), info)
		}
		if syncEvery == 1 && match != len(ops) {
			t.Fatalf("trial %d: SyncEvery=1 lost acknowledged ops: recovered prefix %d of %d",
				trial, match, len(ops))
		}
	}
}
