package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math"
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

// TestStoreReplaysRepresentations: a log that mixes ops 1, 3 and 4 replays to
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
		v := walk(rng, 1024)
		if id%3 == 1 {
			v = sixDecimals(v) // op 4
		}
		sr := withRep(id, v)
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

// TestStoreSizeRule: a representation is logged only when the record costs at
// most 1/repShare of its value bytes more than the plain op-1 record, or when
// the codec would refuse it. A record without one is the record of the bare
// values, byte for byte, in the log and in a snapshot: op 1 for
// full-precision values.
func TestStoreSizeRule(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cut := repShare * tsio.WALRepSize(4) / 8 // the shortest full-precision series that carries four segments
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
			sizeRuleCase(t, tc.series, tc.logged)
		})
	}

	// The cut per coefficient budget M (M/3 segments) and value form. Full
	// precision pays 11 + 20·N bytes of representation on 8n bytes of values;
	// six decimals pay it out of the 4n bytes the decimal form saves.
	for _, tc := range []struct {
		m       int
		decimal bool
		cut     int
	}{
		{12, false, 728}, {18, false, 1048}, {24, false, 1368},
		{12, true, 23}, {18, true, 32}, {24, true, 42},
	} {
		form := map[bool]string{false: "f64", true: "dec6"}[tc.decimal]
		t.Run(fmt.Sprintf("M=%d/%s", tc.m, form), func(t *testing.T) {
			series := func(n int) Series {
				v := walk(rng, n)
				if tc.decimal {
					v = sixDecimals(v)
				}
				return withSegs(int64(n), v, tc.m/3)
			}
			if rec := loggedRecord(t, series(tc.cut)); rec.Op != map[bool]tsio.WALOp{false: tsio.WALIngestRep, true: tsio.WALIngestDecimal}[tc.decimal] {
				t.Fatalf("op %d at the cut", rec.Op)
			}
			sizeRuleCase(t, series(tc.cut), true)
			sizeRuleCase(t, series(tc.cut-1), false)
			if tc.decimal {
				sizeRuleCase(t, series(64), true)
			}
		})
	}
}

// sizeRuleCase requires sr's representation to be logged or not, and a
// record without one to write the bytes of sr's bare values.
func sizeRuleCase(t *testing.T, sr Series, logged bool) {
	t.Helper()
	if got := loggedRecord(t, sr).Rep != nil; got != logged {
		t.Fatalf("%d points: logged = %v, want %v", len(sr.Values), got, logged)
	}
	raw := Series{ID: sr.ID, Values: sr.Values}
	a, b := storeBytes(t, sr), storeBytes(t, raw)
	if !logged && !reflect.DeepEqual(a, b) {
		t.Fatalf("%d points: a series without a logged representation wrote other bytes than its bare values", len(sr.Values))
	}
	if logged && reflect.DeepEqual(a, b) {
		t.Fatalf("%d points: the logged representation left the bytes unchanged", len(sr.Values))
	}
}

// loggedRecord returns the record an append of sr logs.
func loggedRecord(t *testing.T, sr Series) tsio.WALRecord {
	t.Helper()
	b, _, err := appendIngestRecord(nil, sr)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := tsio.DecodeWALRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// withSegs returns the series (id, v) carrying a fit of v on segs segments
// of about equal length.
func withSegs(id int64, v []float64, segs int) Series {
	ends := make([]int, segs)
	for k := range ends {
		ends[k] = (k+1)*len(v)/segs - 1
	}
	return Series{ID: id, Values: v, Tag: repTag, Rep: repr.FitLinear(v, ends)}
}

// sixDecimals rounds every value of v to six decimals in place, as a sensor
// or the end-to-end benchmark's generator writes them, and returns v.
func sixDecimals(v []float64) []float64 {
	for i, x := range v {
		v[i] = math.Round(x*1e6) / 1e6
	}
	return v
}

// TestStoreRecordForms: the store counts the ingest records it appends by
// value form. Six-decimal values take the decimal form in a batch, and
// AppendIngest writes op 1 whatever the values; snapshots count for nothing.
func TestStoreRecordForms(t *testing.T) {
	mem := NewMemFS()
	st, _, _, err := Open(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	batch := []Series{
		withRep(0, sixDecimals(walk(rng, 256))),
		{ID: 1, Values: sixDecimals(walk(rng, 256))},
		withRep(2, walk(rng, 256)),
		{ID: 3, Values: []float64{1, math.Copysign(0, -1)}},
	}
	if err := st.AppendIngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendIngest(4, sixDecimals(walk(rng, 256))); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendDelete(4); err != nil {
		t.Fatal(err)
	}
	sealed, err := st.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(sealed, batch); err != nil {
		t.Fatal(err)
	}
	if got, want := st.RecordForms(), (RecordForms{Decimal: 2, F64: 3}); got != want {
		t.Fatalf("record forms %+v, want %+v", got, want)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, _, err := Open(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]Series(nil), batch...)
	want[2].Tag, want[2].Rep = tsio.RepTag{}, nil // full precision below the cut
	sameReps(t, got, want)
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

// TestOpenShardedUpgradesManifest: a directory pinned by a version-1 or
// version-2 manifest opens under its count and leaves with a version-3
// manifest, which the older readers refuse; a version-3 manifest stays as it
// is, and a version this binary does not know is refused.
func TestOpenShardedUpgradesManifest(t *testing.T) {
	for _, magic := range []string{"SAPLSHD1", "SAPLSHD2", "SAPLSHD3"} {
		t.Run(magic, func(t *testing.T) {
			mem := NewMemFS()
			if err := writeSnapshotFile(mem, manifestName, []byte(magic+" count=3\n")); err != nil {
				t.Fatal(err)
			}
			recs, err := OpenSharded(mem, 5, Options{})
			if err != nil {
				t.Fatal(err)
			}
			closeShards(t, recs)
			if len(recs) != 3 {
				t.Fatalf("opened %d shards, the manifest pins 3", len(recs))
			}
			data, err := mem.ReadFile(manifestName)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, []byte("SAPLSHD3 count=3\n")) {
				t.Fatalf("manifest after open: %q", data)
			}
		})
	}
	mem := NewMemFS()
	if err := writeSnapshotFile(mem, manifestName, []byte("SAPLSHD4 count=3\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSharded(mem, 3, Options{}); !errors.Is(err, ErrCorruptManifest) {
		t.Fatalf("a newer manifest opened: %v", err)
	}
}
