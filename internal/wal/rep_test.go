package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sapla/internal/repr"
	"sapla/internal/tsio"
)

// Older directories. Until ingest stopped reducing, an ingest record could
// carry the SAPLA representation the ingest computed — op 3 with float64
// values, op 4 with decimal ones — whenever that cost at most 1/64 of the
// value bytes more than the bare op-1 record. The codec no longer reads
// either, so a directory holding one is refused, loudly and without a byte
// of it changed. These tests write such records as the older store did.

// legacyRecord returns the payload an older store logged for (id, v) with a
// representation on segs segments of about equal length: op 4 when v has the
// decimal form and op 3 otherwise, the bare record followed by the tag
// (method 1, generation 1, M = 3·segs), the segment count, and per segment A
// and B as float64 bits and R as uint32.
func legacyRecord(t *testing.T, id int64, v []float64, segs int) []byte {
	t.Helper()
	b, decimal, err := appendIngestRecord(nil, Series{ID: id, Values: v})
	if err != nil {
		t.Fatal(err)
	}
	if !decimal {
		b[0] = 3
	}
	ends := make([]int, segs)
	for k := range ends {
		ends[k] = (k+1)*len(v)/segs - 1
	}
	b = append(b, 1, 1, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(3*segs))
	b = binary.LittleEndian.AppendUint32(b, uint32(segs))
	for _, s := range repr.FitLinear(v, ends).Segs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Line.A))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Line.B))
		b = binary.LittleEndian.AppendUint32(b, uint32(s.R))
	}
	return b
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

// writeOldDir writes an older store's directory into mem under a version-3
// manifest of one shard: snapshot 1 holding the payloads snap (nil for none)
// and segment 2 framing the payloads logged, in the frame and snapshot
// layouts, which did not change.
func writeOldDir(t *testing.T, mem *MemFS, snap, logged [][]byte) {
	t.Helper()
	if err := writeSnapshotFile(mem, manifestName, []byte("SAPLSHD3 count=1\n")); err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		data := binary.LittleEndian.AppendUint32([]byte("SAPLSNP1"), uint32(len(snap)))
		for _, payload := range snap {
			data = append(binary.LittleEndian.AppendUint32(data, uint32(len(payload))), payload...)
		}
		data = binary.LittleEndian.AppendUint32(data, crc32.Checksum(data, castagnoli))
		if err := writeSnapshotFile(mem, snapFileName(1), data); err != nil {
			t.Fatal(err)
		}
	}
	var frames []byte
	for _, payload := range logged {
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
// snapshots, failing the test on one the codec refuses — an op-3 record or
// a representation tail among them.
func writtenRecords(t *testing.T, mem *MemFS) []tsio.WALRecord {
	t.Helper()
	var out []tsio.WALRecord
	for name, data := range memFiles(t, mem) {
		switch {
		case strings.HasSuffix(name, segSuffix):
			valid, _, err := replaySegment(data, func(rec tsio.WALRecord) { out = append(out, rec) })
			if err != nil || valid != int64(len(data)) {
				t.Fatalf("%s: %d of %d bytes replay (%v)", name, valid, len(data), err)
			}
		case strings.HasSuffix(name, snapSuffix):
			series, err := decodeSnapshot(data)
			if err != nil {
				t.Fatal(err)
			}
			for _, sr := range series {
				out = append(out, tsio.WALRecord{ID: sr.ID, Values: sr.Values})
			}
		}
	}
	return out
}

// TestStoreRefusesRepresentationLogs: an older directory — a snapshot whose
// records carry representations (op 3 and op 4 with one), a log mixing such
// records with op 1, op 4 without one and a delete — is refused by
// OpenSharded, naming the op, with every byte of the directory unchanged;
// so is its log alone, whether its first representation-carrying frame is
// op 3 or op 4, and under the version-2 manifest the first such servers
// wrote, which OpenSharded upgrades only once every stream has opened.
// Replay must not take such a frame for a torn tail: it is whole, and
// truncating it would drop it and every record after it.
func TestStoreRefusesRepresentationLogs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var snap, logged [][]byte
	for id := int64(0); id < 8; id++ {
		v := walk(rng, 1024)
		if id%2 == 1 {
			v = sixDecimals(v)
		}
		switch {
		case id < 4:
			snap = append(snap, legacyRecord(t, id, v, 4))
		case id == 6:
			logged = append(logged, encodeRecord(t, tsio.WALRecord{Op: tsio.WALIngest, ID: id, Values: v}))
		default:
			logged = append(logged, legacyRecord(t, id, v, 4))
		}
	}
	logged = append(logged, encodeRecord(t, tsio.WALRecord{Op: tsio.WALDelete, ID: 1}),
		encodeRecord(t, tsio.WALRecord{Op: tsio.WALIngestDecimal, ID: 2, Values: sixDecimals(walk(rng, 1024))}))
	bare := encodeRecord(t, tsio.WALRecord{Op: tsio.WALIngest, ID: 20, Values: walk(rng, 64)})
	for _, tc := range []struct {
		name         string
		snap, logged [][]byte
		want         error
		op           string
	}{
		{"snapshot and log", snap, logged, ErrCorruptSnapshot, "op: 3"},
		{"log", nil, logged, ErrCorruptWAL, "op: 3"},
		{"log, op 3 last", nil, [][]byte{bare, snap[0]}, ErrCorruptWAL, "op: 3"},
		{"log, op 4 last", nil, [][]byte{bare, snap[1]}, ErrCorruptWAL, "op 4"},
		{"version-2 manifest", nil, [][]byte{bare, snap[0]}, ErrCorruptWAL, "op: 3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := NewMemFS()
			writeOldDir(t, mem, tc.snap, tc.logged)
			if strings.HasPrefix(tc.name, "version-2") {
				if err := writeSnapshotFile(mem, manifestName, []byte("SAPLSHD2 count=1\n")); err != nil {
					t.Fatal(err)
				}
			}
			before := memFiles(t, mem)
			recs, err := OpenSharded(mem, 1, Options{})
			if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.op) {
				closeShards(t, recs)
				t.Fatalf("OpenSharded: %v, want %v naming %q", err, tc.want, tc.op)
			}
			if after := memFiles(t, mem); !reflect.DeepEqual(after, before) {
				t.Fatalf("the refused directory changed: %d files before, %d after", len(before), len(after))
			}
		})
	}
}

// TestStoreRefusesUnknownOp: a final segment whose last frame checks but
// holds an op the codec does not know is corrupt, not torn: Open refuses it
// and truncates nothing.
func TestStoreRefusesUnknownOp(t *testing.T) {
	rec := encodeRecord(t, tsio.WALRecord{Op: tsio.WALIngest, ID: 5, Values: []float64{1, 2, 3}})
	unknown := append([]byte(nil), rec...)
	unknown[0] = 9
	mem := NewMemFS()
	writeOldDir(t, mem, nil, [][]byte{rec, unknown})
	before := memFiles(t, mem)
	_, _, info, err := Open(mem, Options{})
	if !errors.Is(err, ErrCorruptWAL) || !strings.Contains(err.Error(), "op: 9") || info.TornBytes != 0 {
		t.Fatalf("Open: %v, %d torn bytes; want %v naming op 9 and none torn", err, info.TornBytes, ErrCorruptWAL)
	}
	if after := memFiles(t, mem); !reflect.DeepEqual(after, before) {
		t.Fatal("the refused segment changed")
	}
}

// TestStoreSizeRule holds the cases of the older store's size rule, which
// decided whether an ingest record carried its representation, to what is
// left of it: nothing. Whatever the length and value form, the store writes
// the bare values — op 4 when they have the decimal form, op 1 otherwise — in
// the log and in a snapshot; and where the older store did log a
// representation, a directory holding that record is refused.
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
// representation on segs segments to be refused, in the log and in a
// snapshot.
func sizeRuleCase(t *testing.T, sr Series, segs int) {
	t.Helper()
	_, decimal := tsio.DecimalExponent(sr.Values)
	want := map[bool]tsio.WALOp{false: tsio.WALIngest, true: tsio.WALIngestDecimal}[decimal]
	if rec := loggedRecord(t, sr); rec.Op != want {
		t.Fatalf("%d points: logged op %d, want op %d", len(sr.Values), rec.Op, want)
	}
	if recs := writtenRecords(t, storeFiles(t, sr)); len(recs) != 2 { // the snapshot's and the kept segment's
		t.Fatalf("%d points: %d records written, want 2", len(sr.Values), len(recs))
	}
	if segs == 0 {
		return
	}
	old := legacyRecord(t, sr.ID, sr.Values, segs)
	for _, snap := range [][][]byte{nil, {old}} {
		mem := NewMemFS()
		writeOldDir(t, mem, snap, [][]byte{old})
		if _, _, _, err := Open(mem, Options{}); !errors.Is(err, ErrCorruptWAL) && !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("%d points: the older record opened: %v", len(sr.Values), err)
		}
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
// value form. Six-decimal values take the decimal form, in a batch and
// through AppendIngest alike; deletes and snapshots count for nothing.
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
	if err := st.AppendDelete(4, 0); err != nil {
		t.Fatal(err)
	}
	sealed, err := st.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(sealed, batch[1:]); err != nil {
		t.Fatal(err)
	}
	if got, want := st.RecordForms(), (RecordForms{Decimal: 3, F64: 2}); got != want {
		t.Fatalf("record forms %+v, want %+v", got, want)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, _, err := Open(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameSeries(t, got, batch[1:])
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
