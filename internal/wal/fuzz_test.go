package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"sapla/internal/tsio"
)

// FuzzReplaySegment feeds arbitrary bytes to replay as one segment. Replay
// must never panic; the valid prefix it reports must replay again to the same
// records, whole and without an error; and an error may come only from a
// frame whose checksum holds, the frame at the end of that prefix.
func FuzzReplaySegment(f *testing.F) {
	mem := NewMemFS()
	st, _, _, err := Open(mem, Options{})
	if err != nil {
		f.Fatal(err)
	}
	if err := st.AppendIngestBatch([]Series{{ID: 1, Values: []float64{1.5, -2, 0.25}}, {ID: 2, Values: []float64{1e-300, 3}}}); err != nil {
		f.Fatal(err)
	}
	if err := st.AppendDelete(1, 7); err != nil {
		f.Fatal(err)
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := mem.ReadFile(segFileName(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-3])
	f.Add(seg[:frameHeader+5])
	f.Add([]byte{})
	flipped := append([]byte(nil), seg...)
	flipped[frameHeader+2] ^= 0x10
	f.Add(flipped)
	// A whole frame of an op the codec does not know.
	unknown := append([]byte(nil), seg[frameHeader:frameHeader+int(binary.LittleEndian.Uint32(seg))]...)
	unknown[0] = 3
	framed := binary.LittleEndian.AppendUint32(append([]byte(nil), seg...), uint32(len(unknown)))
	framed = binary.LittleEndian.AppendUint32(framed, crc32.Checksum(unknown, castagnoli))
	f.Add(append(framed, unknown...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var first [][]byte
		collect := func(out *[][]byte) func(tsio.WALRecord) {
			return func(rec tsio.WALRecord) {
				b, err := tsio.AppendWALRecord(nil, rec)
				if err != nil {
					t.Fatalf("replay applied a record that does not encode: %v", err)
				}
				*out = append(*out, b)
			}
		}
		valid, records, err := replaySegment(data, collect(&first))
		if valid < 0 || valid > int64(len(data)) || records != len(first) {
			t.Fatalf("valid prefix %d of %d bytes, %d records counted, %d applied", valid, len(data), records, len(first))
		}
		if err != nil {
			off := int(valid)
			if !errors.Is(err, ErrCorruptWAL) || off+frameHeader > len(data) {
				t.Fatalf("error %v at byte %d of %d", err, off, len(data))
			}
			length := int(binary.LittleEndian.Uint32(data[off:]))
			end := off + frameHeader + length
			if end > len(data) || crc32.Checksum(data[off+frameHeader:end], castagnoli) != binary.LittleEndian.Uint32(data[off+4:]) {
				t.Fatalf("error %v from a frame whose checksum fails", err)
			}
		}
		var again [][]byte
		v2, r2, err := replaySegment(data[:valid], collect(&again))
		if err != nil || v2 != valid || r2 != records || len(again) != len(first) {
			t.Fatalf("the valid prefix replays to %d bytes, %d records (%v); first %d bytes, %d records", v2, r2, err, valid, records)
		}
		for i := range first {
			if !bytes.Equal(first[i], again[i]) {
				t.Fatalf("record %d differs on the second replay", i)
			}
		}
	})
}
