package wal

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"sapla/internal/repr"
	"sapla/internal/tsio"
)

var repTag = tsio.RepTag{Method: tsio.RepSAPLA, Gen: 1, M: 12}

// withRep returns the series (id, v) carrying a four-segment fit of v.
func withRep(id int64, v []float64) Series {
	n := len(v)
	return Series{ID: id, Values: v, Tag: repTag, Rep: repr.FitLinear(v, []int{n/4 - 1, n/2 - 1, 3*n/4 - 1, n - 1})}
}

// sameReps asserts got carries exactly want's tags and representations.
func sameReps(t *testing.T, got, want []Series) {
	t.Helper()
	sameSeries(t, got, want)
	for i := range want {
		if got[i].Tag != want[i].Tag || !reflect.DeepEqual(got[i].Rep, want[i].Rep) {
			t.Fatalf("series id %d: tag %+v rep %+v, want %+v %+v", got[i].ID, got[i].Tag, got[i].Rep, want[i].Tag, want[i].Rep)
		}
	}
}

// TestStoreReplaysRepresentations: a log that mixes op 1 and op 3 replays to
// each live series with the representation its last ingest carried — none
// after an op-1 re-ingest of a deleted ID — and a snapshot keeps them.
func TestStoreReplaysRepresentations(t *testing.T) {
	mem := NewMemFS()
	st, _, _, err := Open(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	ref := map[int64]Series{}
	var batch []Series
	for id := int64(0); id < 6; id++ {
		sr := withRep(id, walk(rng, 1024))
		if id%3 == 2 {
			sr.Tag, sr.Rep = tsio.RepTag{}, nil // op 1 inside the batch
		}
		batch = append(batch, sr)
		ref[id] = sr
	}
	if err := st.AppendIngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	plain := walk(rng, 1024)
	if err := st.AppendIngest(6, plain); err != nil {
		t.Fatal(err)
	}
	ref[6] = Series{ID: 6, Values: plain}
	// Deleted, then re-ingested through op 1: the old representation goes.
	if err := st.AppendDelete(1); err != nil {
		t.Fatal(err)
	}
	again := walk(rng, 1024)
	if err := st.AppendIngest(1, again); err != nil {
		t.Fatal(err)
	}
	ref[1] = Series{ID: 1, Values: again}

	want := make([]Series, 0, len(ref))
	for id := int64(0); id < 7; id++ {
		want = append(want, ref[id])
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, got, info, err := Open(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 9 {
		t.Fatalf("replayed %d records, want 9", info.Replayed)
	}
	sameReps(t, got, want)

	// The same state through a snapshot, then a replay on top of it.
	sealed, err := st.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(sealed, got); err != nil {
		t.Fatal(err)
	}
	late := withRep(7, walk(rng, 1024))
	if err := st.AppendIngestBatch([]Series{late}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, info, err = Open(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotSeries != 7 || info.Replayed != 1 {
		t.Fatalf("info = %+v, want 7 snapshot series and 1 replayed", info)
	}
	sameReps(t, got, append(want, late))
}

// TestStoreSizeRule: a representation is logged only when its encoding is at
// most 1/repShare of the record's value bytes, or when the codec would refuse
// it. A record without one is the op-1 record, byte for byte, in the log and
// in a snapshot.
func TestStoreSizeRule(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cut := repShare * tsio.WALRepSize(4) / 8 // the shortest series that carries four segments
	for _, tc := range []struct {
		name   string
		series Series
		logged bool
	}{
		{"long", withRep(1, walk(rng, 1024)), true},
		{"at the cut", withRep(2, walk(rng, cut)), true},
		{"below the cut", withRep(3, walk(rng, cut-4)), false},
		{"short", withRep(4, walk(rng, 256)), false},
		{"zero tag", Series{ID: 5, Values: walk(rng, 1024), Rep: withRep(5, walk(rng, 1024)).Rep}, false},
		{"not linear", Series{ID: 6, Values: walk(rng, 1024), Tag: repTag, Rep: repr.PAA{N: 1024, Values: []float64{1}}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := ingestRecord(tc.series).Op == tsio.WALIngestRep; got != tc.logged {
				t.Fatalf("logged = %v, want %v", got, tc.logged)
			}
			raw := Series{ID: tc.series.ID, Values: tc.series.Values}
			a, b := storeBytes(t, tc.series), storeBytes(t, raw)
			if !tc.logged && !reflect.DeepEqual(a, b) {
				t.Fatal("a series without a logged representation wrote other bytes than its op-1 record")
			}
			if tc.logged && reflect.DeepEqual(a, b) {
				t.Fatal("the logged representation left the bytes unchanged")
			}
		})
	}
}

// storeBytes writes sr to a fresh store, through the log and then a
// snapshot, and returns every file's bytes.
func storeBytes(t *testing.T, sr Series) map[string][]byte {
	t.Helper()
	mem := NewMemFS()
	st, _, _, err := Open(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendIngestBatch([]Series{sr}); err != nil {
		t.Fatal(err)
	}
	sealed, err := st.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendIngestBatch([]Series{sr}); err != nil { // into the next segment, kept
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(sealed, []Series{sr}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return memFiles(t, mem)
}

// memFiles returns every file of mem with its bytes.
func memFiles(t *testing.T, mem *MemFS) map[string][]byte {
	t.Helper()
	names, err := mem.List()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, name := range names {
		if out[name], err = mem.ReadFile(name); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestOpenShardedUpgradesManifest: a directory pinned by a version-1
// manifest opens under its count and leaves with a version-2 manifest, which
// a version-1 reader refuses.
func TestOpenShardedUpgradesManifest(t *testing.T) {
	mem := NewMemFS()
	if err := writeSnapshotFile(mem, manifestName, []byte(manifestMagicV1+" count=3\n")); err != nil {
		t.Fatal(err)
	}
	recs, err := OpenSharded(mem, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	closeShards(t, recs)
	if len(recs) != 3 {
		t.Fatalf("opened %d shards, the version-1 manifest pins 3", len(recs))
	}
	data, err := mem.ReadFile(manifestName)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte("SAPLSHD2 count=3\n")) {
		t.Fatalf("manifest after open: %q", data)
	}
}
