package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"sapla/internal/tsio"
)

// Frame layout: [length uint32 LE][crc32c uint32 LE of payload][payload].
// Length covers the payload only; an 8-byte header precedes it.
const frameHeader = 8

// maxFramePayload bounds one frame so a corrupt length prefix cannot drive
// an enormous allocation or make replay skip the rest of the log: no frame
// holds more than the largest record the codec permits.
const maxFramePayload = tsio.MaxWALRecordSize

// castagnoli is the CRC32C table (the checksum with hardware support on
// both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends one checksummed frame carrying payload to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// replaySegment scans data frame by frame, calling apply for every intact
// record. It stops at the first torn or corrupt frame — a frame header that
// runs past the data, an absurd length, a checksum mismatch, or a payload
// the record codec rejects — and returns the byte offset of the valid
// prefix. A replay error from apply aborts immediately and is returned
// as-is (that is state-application failure, not log corruption).
func replaySegment(data []byte, apply func(tsio.WALRecord) error) (valid int64, records int, err error) {
	off := 0
	for {
		if off+frameHeader > len(data) {
			return int64(off), records, nil // torn or clean end
		}
		length := int(binary.LittleEndian.Uint32(data[off:]))
		if length == 0 || length > maxFramePayload {
			return int64(off), records, nil // corrupt length prefix
		}
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if off+frameHeader+length > len(data) {
			return int64(off), records, nil // torn payload
		}
		payload := data[off+frameHeader : off+frameHeader+length]
		if crc32.Checksum(payload, castagnoli) != sum {
			return int64(off), records, nil // bit rot or torn rewrite
		}
		rec, decErr := tsio.DecodeWALRecord(payload)
		if decErr != nil {
			return int64(off), records, nil // framed garbage
		}
		if err := apply(rec); err != nil {
			return int64(off), records, fmt.Errorf("wal: replay record %d: %w", records, err)
		}
		off += frameHeader + length
		records++
	}
}
