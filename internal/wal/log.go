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

// recordHeader is the size of a record's op, ID and value count, which the
// appends use to size their frame buffers.
const recordHeader = 1 + 8 + 4

// maxFramePayload bounds one frame so a corrupt length prefix cannot drive
// an enormous allocation or make replay skip the rest of the log: no frame
// holds more than the largest record the codec permits.
const maxFramePayload = tsio.MaxWALRecordSize

// castagnoli is the CRC32C table (the checksum with hardware support on
// both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// beginFrame reserves a frame header at the end of dst and returns the
// extended slice with the header's offset; the caller appends the record
// after it and then calls endFrame, so a payload is encoded once, in place.
func beginFrame(dst []byte) ([]byte, int) {
	return append(dst, make([]byte, frameHeader)...), len(dst)
}

// endFrame fills in the length and checksum of frame, a header followed by
// its payload.
func endFrame(frame []byte) {
	payload := frame[frameHeader:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
}

// replaySegment scans data frame by frame, calling apply for every intact
// record, and returns the byte offset of the valid prefix. It stops without
// an error at the first torn frame — a frame header that runs past the data,
// an absurd length, or a checksum mismatch — which only the final segment's
// tail may hold. A frame whose checksum holds but whose record the codec
// refuses (an op-3 record, or op 4 with a representation tail, from a server
// that logged representations) was written whole, so it is ErrCorruptWAL,
// never a tail to truncate.
func replaySegment(data []byte, apply func(tsio.WALRecord)) (valid int64, records int, err error) {
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
			return int64(off), records, fmt.Errorf("%w: record %d at byte %d: %v", ErrCorruptWAL, records, off, decErr)
		}
		apply(rec)
		off += frameHeader + length
		records++
	}
}
