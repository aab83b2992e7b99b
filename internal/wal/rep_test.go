package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sapla/internal/repr"
	"sapla/internal/tsio"
)

// Older directories. Until ingest stopped reducing, an ingest record could
// carry the SAPLA representation the ingest computed — op 3 with float64
// values, op 4 with decimal ones — whenever that cost at most 1/64 of the
// value bytes more than the bare op-1 record. The store writes neither any
// more. These tests write such records as the older store did, framed by
// hand, and hold replay to the values alone.

// oldRecord returns the ingest record of (id, v) as the older store logged it:
// with a representation on segs segments of about equal length, in op 4 when
// v has the decimal form and op 3 otherwise.
func oldRecord(t *testing.T, id int64, v []float64, segs int) tsio.WALRecord {
	t.Helper()
	ends := make([]int, segs)
	for k := range ends {
		ends[k] = (k+1)*len(v)/segs - 1
	}
	rec := tsio.WALRecord{Op: tsio.WALIngestDecimal, ID: id, Values: v,
		Tag: tsio.RepTag{Method: tsio.RepSAPLA, Gen: 1, M: uint32(3 * segs)}, Rep: repr.FitLinear(v, ends)}
	if _, err := tsio.AppendWALRecord(nil, rec); errors.Is(err, tsio.ErrWALNotDecimal) {
		rec.Op = tsio.WALIngestRep
	}
	return rec
}

// encodeRecord returns rec's payload.
func encodeRecord(t *testing.T, rec tsio.WALRecord) []byte {
	t.Helper()
	b, err := tsio.AppendWALRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// writeOldDir writes an older store's directory into mem: snapshot 1 holding
// snap (nil for none) and segment 2 holding logged, in the frame and snapshot
// layouts, which did not change.
func writeOldDir(t *testing.T, mem *MemFS, snap, logged []tsio.WALRecord) {
	t.Helper()
	if snap != nil {
		data := binary.LittleEndian.AppendUint32([]byte("SAPLSNP1"), uint32(len(snap)))
		for _, rec := range snap {
			payload := encodeRecord(t, rec)
			data = append(binary.LittleEndian.AppendUint32(data, uint32(len(payload))), payload...)
		}
		data = binary.LittleEndian.AppendUint32(data, crc32.Checksum(data, castagnoli))
		if err := writeSnapshotFile(mem, snapFileName(1), data); err != nil {
			t.Fatal(err)
		}
	}
	var frames []byte
	for _, rec := range logged {
		payload := encodeRecord(t, rec)
		frames = binary.LittleEndian.AppendUint32(frames, uint32(len(payload)))
		frames = binary.LittleEndian.AppendUint32(frames, crc32.Checksum(payload, castagnoli))
		frames = append(frames, payload...)
	}
	f, err := mem.Create(segFileName(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frames); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// writtenRecords decodes every ingest or delete record in mem's segments and
// snapshots.
func writtenRecords(t *testing.T, mem *MemFS) []tsio.WALRecord {
	t.Helper()
	var out []tsio.WALRecord
	for name, data := range memFiles(t, mem) {
		switch {
		case strings.HasSuffix(name, segSuffix):
			valid, _, err := replaySegment(data, func(rec tsio.WALRecord) error {
				out = append(out, rec)
				return nil
			})
			if err != nil || valid != int64(len(data)) {
				t.Fatalf("%s: %d of %d bytes replay (%v)", name, valid, len(data), err)
			}
		case strings.HasSuffix(name, snapSuffix):
			if _, err := decodeSnapshot(data); err != nil {
				t.Fatal(err)
			}
			for off := len(snapshotMagic) + 4; off < len(data)-4; {
				n := int(binary.LittleEndian.Uint32(data[off:]))
				rec, err := tsio.DecodeWALRecord(data[off+4 : off+4+n])
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, rec)
				off += 4 + n
			}
		}
	}
	return out
}

// noRepresentation requires every record the store wrote into mem to be op
// 1, 2 or 4 with no representation.
func noRepresentation(t *testing.T, mem *MemFS) {
	t.Helper()
	for _, rec := range writtenRecords(t, mem) {
		if rec.Op == tsio.WALIngestRep || rec.Rep != nil {
			t.Fatalf("id %d: the store wrote op %d with representation %v", rec.ID, rec.Op, rec.Rep)
		}
	}
}

// TestStoreReplaysRepresentations: an older directory whose snapshot holds op-3
// and op-4 records with representations, and whose log mixes them with op 1,
// op 4 without one, a delete and a re-ingest, recovers every live series with
// its values bit for bit. A store opened on it then writes no representation
// into it, in the log or in its next snapshot.
func TestStoreReplaysRepresentations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ref := map[int64][]float64{}
	var snap, logged []tsio.WALRecord
	for id := int64(0); id < 8; id++ {
		v := walk(rng, 1024)
		if id%2 == 1 {
			v = sixDecimals(v)
		}
		rec := oldRecord(t, id, v, 4)
		switch {
		case id < 4:
			snap = append(snap, rec)
		case id == 6:
			logged = append(logged, tsio.WALRecord{Op: tsio.WALIngest, ID: id, Values: v})
		default:
			logged = append(logged, rec)
		}
		ref[id] = v
	}
	// Series 1 goes; series 2 comes back with other values in op 4 without a
	// representation, series 3 in op 3.
	ref[2], ref[3] = sixDecimals(walk(rng, 1024)), walk(rng, 1024)
	logged = append(logged, tsio.WALRecord{Op: tsio.WALDelete, ID: 1},
		tsio.WALRecord{Op: tsio.WALIngestDecimal, ID: 2, Values: ref[2]}, oldRecord(t, 3, ref[3], 4))
	delete(ref, 1)
	ops := map[tsio.WALOp]int{}
	for _, rec := range append(snap, logged...) {
		if rec.Rep != nil {
			ops[rec.Op]++
		}
	}
	if ops[tsio.WALIngestRep] != 4 || ops[tsio.WALIngestDecimal] != 4 {
		t.Fatalf("the fixture carries representations in %v records by op, want 4 of op 3 and 4 of op 4", ops)
	}
	mem := NewMemFS()
	writeOldDir(t, mem, snap, logged)

	st, got, info, err := Open(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotSeries != 4 || info.Replayed != len(logged) {
		t.Fatalf("info = %+v, want 4 snapshot series and %d replayed", info, len(logged))
	}
	sameSeries(t, got, toSorted(ref))

	// The store carries on in the older directory without representations.
	ref[9], ref[10] = sixDecimals(walk(rng, 1024)), walk(rng, 1024)
	late := []Series{{ID: 9, Values: ref[9]}, {ID: 10, Values: ref[10]}}
	if err := st.AppendIngestBatch(late); err != nil {
		t.Fatal(err)
	}
	sealed, err := st.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(sealed, append(got, late...)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	noRepresentation(t, mem)
	_, got, _, err = Open(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameSeries(t, got, toSorted(ref))
}

// TestStoreSizeRule holds the cases of the older store's size rule, which
// decided whether an ingest record carried its representation, to what is
// left of it: nothing. Whatever the length and value form, the store writes
// the bare values — op 4 when they have the decimal form, op 1 otherwise — in
// the log and in a snapshot; and where the older store did log a
// representation, a directory holding that record recovers the values alone.
func TestStoreSizeRule(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const cut = 728 // the older rule's shortest full-precision series with four segments, at M = 12
	for _, tc := range []struct {
		name string
		v    []float64
		segs int // the segments the older store logged with v; 0 for none
	}{
		{"long", walk(rng, 1024), 4},
		{"at the cut", walk(rng, cut), 4},
		{"below the cut", walk(rng, cut-4), 0},
		{"short", walk(rng, 256), 0},
		// The older store refused a representation under a zero tag, or one
		// that was not linear, and wrote op 1.
		{"zero tag", walk(rng, 1024), 0},
		{"not linear", walk(rng, 1024), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sizeRuleCase(t, Series{ID: 1, Values: tc.v}, tc.segs)
		})
	}

	// The older cut per coefficient budget M (M/3 segments) and value form.
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
				return Series{ID: int64(n), Values: v}
			}
			sizeRuleCase(t, series(tc.cut), tc.m/3)
			sizeRuleCase(t, series(tc.cut-1), 0)
			if tc.decimal {
				sizeRuleCase(t, series(64), tc.m/3)
			}
		})
	}
}

// sizeRuleCase requires the store to write sr's bare values in the form they
// take, and — when segs > 0 — the older store's record of sr with a
// representation on segs segments to recover as sr, from the log and from a
// snapshot.
func sizeRuleCase(t *testing.T, sr Series, segs int) {
	t.Helper()
	_, decimal := tsio.DecimalExponent(sr.Values)
	want := map[bool]tsio.WALOp{false: tsio.WALIngest, true: tsio.WALIngestDecimal}[decimal]
	if rec := loggedRecord(t, sr); rec.Op != want || rec.Rep != nil {
		t.Fatalf("%d points: logged op %d with representation %v, want op %d without", len(sr.Values), rec.Op, rec.Rep, want)
	}
	mem := storeFiles(t, sr)
	noRepresentation(t, mem)
	if recs := writtenRecords(t, mem); len(recs) != 2 { // the snapshot's and the kept segment's
		t.Fatalf("%d points: %d records written, want 2", len(sr.Values), len(recs))
	}
	if segs == 0 {
		return
	}
	old := oldRecord(t, sr.ID, sr.Values, segs)
	for _, snap := range [][]tsio.WALRecord{nil, {old}} {
		mem := NewMemFS()
		writeOldDir(t, mem, snap, []tsio.WALRecord{old})
		_, got, _, err := Open(mem, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameSeries(t, got, []Series{sr})
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
		{ID: 0, Values: sixDecimals(walk(rng, 256))},
		{ID: 1, Values: sixDecimals(walk(rng, 256))},
		{ID: 2, Values: walk(rng, 256)},
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
	sameSeries(t, got, batch)
}

// storeFiles writes sr to a fresh store, through the log and then a
// snapshot, and returns the store's filesystem.
func storeFiles(t *testing.T, sr Series) *MemFS {
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
	return mem
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
