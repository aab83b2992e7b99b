package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"sapla/internal/tsio"
)

// ErrCorruptSnapshot is wrapped by every snapshot integrity failure. A
// snapshot that exists under its final name was fully written and fsync'd
// before the rename, so a bad magic, length or checksum means real
// corruption — recovery refuses it loudly instead of silently serving a
// partial store.
var ErrCorruptSnapshot = errors.New("wal: corrupt snapshot")

// snapshotMagic heads every snapshot file (7 name bytes + format version).
var snapshotMagic = []byte("SAPLSNP1")

// Snapshot layout:
//
//	magic [8] | count uint32 | count × (len uint32 | WAL ingest record) | crc32c uint32
//
// The trailing CRC32C covers everything before it, so any truncation or bit
// flip anywhere in the file is caught by one footer check. Each record is
// appendIngestRecord's choice, op 1 or 4, as in the log; a record the codec
// refuses — an older server's op 3, or op 4 with a representation — makes the
// snapshot corrupt.

// encodeSnapshot serializes series (which the caller provides sorted by ID
// so snapshot bytes are deterministic for a given store state).
func encodeSnapshot(series []Series) ([]byte, error) {
	buf := append([]byte(nil), snapshotMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(series)))
	for _, s := range series {
		at := len(buf)
		buf = binary.LittleEndian.AppendUint32(buf, 0) // the record's length, set below
		var err error
		if buf, _, err = appendIngestRecord(buf, s); err != nil {
			return nil, fmt.Errorf("wal: encode snapshot series %d: %w", s.ID, err)
		}
		binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli)), nil
}

// decodeSnapshot parses and verifies one snapshot file.
func decodeSnapshot(data []byte) ([]Series, error) {
	if len(data) < len(snapshotMagic)+4+4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorruptSnapshot, len(data))
	}
	if string(data[:len(snapshotMagic)]) != string(snapshotMagic) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorruptSnapshot, data[:len(snapshotMagic)])
	}
	body, footer := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(footer) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptSnapshot)
	}
	off := len(snapshotMagic)
	count := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	out := make([]Series, 0, min(count, 1<<20))
	for i := 0; i < count; i++ {
		if off+4 > len(body) {
			return nil, fmt.Errorf("%w: series %d/%d runs past the footer", ErrCorruptSnapshot, i, count)
		}
		recLen := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if recLen <= 0 || recLen > maxFramePayload || off+recLen > len(body) {
			return nil, fmt.Errorf("%w: series %d has length %d", ErrCorruptSnapshot, i, recLen)
		}
		rec, err := tsio.DecodeWALRecord(body[off : off+recLen])
		if err != nil {
			return nil, fmt.Errorf("%w: series %d: %v", ErrCorruptSnapshot, i, err)
		}
		if rec.Op == tsio.WALDelete {
			return nil, fmt.Errorf("%w: series %d has op %d", ErrCorruptSnapshot, i, rec.Op)
		}
		out = append(out, Series{ID: rec.ID, Values: rec.Values})
		off += recLen
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptSnapshot, len(body)-off)
	}
	return out, nil
}

// writeSnapshotFile writes data to name via a temp file, fsync, then atomic
// rename. On any failure the temp file is removed (best effort) and the
// previous snapshot, if any, is untouched.
func writeSnapshotFile(fsys FS, name string, data []byte) error {
	tmp := name + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: create snapshot temp: %w", err)
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, name)
	}
	if err != nil {
		_ = fsys.Remove(tmp) // best-effort cleanup of a temp file
		return fmt.Errorf("wal: install snapshot %s: %w", name, err)
	}
	return nil
}
