package tsio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"sapla/internal/repr"
	"sapla/internal/segment"
)

// WALOp identifies one write-ahead-log record type.
type WALOp uint8

// WAL record operations. The zero value is invalid so an all-zero buffer
// never decodes as a record.
const (
	WALIngest    WALOp = 1 // store Values under ID
	WALDelete    WALOp = 2 // remove ID; Values must be empty
	WALIngestRep WALOp = 3 // WALIngest plus Rep, Values' representation by the reducer Tag names
)

// RepMethod is the one-byte code of the reduction method behind a logged
// representation.
type RepMethod uint8

// RepSAPLA is the one method whose representations are logged: its reducer
// carries a generation (core.Generation) that changes whenever its output
// does. Every other code is refused.
const RepSAPLA RepMethod = 1

// RepTag names the reducer that produced a logged representation: the method,
// the reducer's generation and the coefficient budget M. A reader uses the
// representation only when the tag equals its own reducer's; the zero tag
// names none.
type RepTag struct {
	Method RepMethod
	Gen    uint16
	M      uint32
}

// WALRecord is one durable mutation of the representation store: an ingest
// carrying the raw series, or a delete. The binary form is fixed-width
// little-endian — op byte, int64 ID, uint32 value count, then the values as
// IEEE-754 bits — so encode(decode(b)) is byte-identical and replay never
// depends on platform formatting. An op-3 ingest continues with its tag
// (method byte, uint16 generation, uint32 M) and its repr.Linear: a uint32
// segment count, then per segment A and B as float64 bits and R as uint32.
type WALRecord struct {
	Op     WALOp
	ID     int64
	Values []float64
	Tag    RepTag              // op 3 only
	Rep    repr.Representation // op 3 only: a repr.Linear over Values
}

// walRecordHeader is the encoded size of the fixed fields: 1 (op) + 8 (id)
// + 4 (count).
const walRecordHeader = 1 + 8 + 4

// walRepHeader is the encoded size of an op-3 record's tag and segment count
// (1 + 2 + 4 + 4), and walRepSeg that of each segment after them.
const (
	walRepHeader = 1 + 2 + 4 + 4
	walRepSeg    = 8 + 8 + 4
)

// MaxWALValues bounds the value count a record may carry. It exists so a
// corrupt length prefix cannot drive a multi-gigabyte allocation during
// replay; 1<<24 points (128 MiB of float64s) is far beyond any series the
// service accepts.
const MaxWALValues = 1 << 24

// MaxWALRecordSize is the largest record the codec encodes or decodes: an op-3
// record of MaxWALValues values and as many segments.
const MaxWALRecordSize = walRecordHeader + 8*MaxWALValues + walRepHeader + walRepSeg*MaxWALValues

// Errors returned by the WAL record codec.
var (
	ErrWALRecordShort = errors.New("tsio: wal record truncated")
	ErrWALRecordOp    = errors.New("tsio: wal record has invalid op")
	ErrWALRepMethod   = errors.New("tsio: wal record has unknown representation method")
)

// EncodedWALRecordSize returns the exact encoded size of r.
func EncodedWALRecordSize(r WALRecord) int {
	size := walRecordHeader + 8*len(r.Values)
	if lin, ok := r.Rep.(repr.Linear); ok && r.Op == WALIngestRep {
		size += WALRepSize(len(lin.Segs))
	}
	return size
}

// WALRepSize returns how many bytes an op-3 record spends on the tag and a
// representation of segs segments.
func WALRepSize(segs int) int { return walRepHeader + walRepSeg*segs }

// ValidateWALRep reports whether rep may be logged under tag beside a series
// of n values: the tag names a known method, and rep is a repr.Linear over n
// points with at least one segment, strictly increasing endpoints, the last
// one n−1, and finite coefficients. The encoder and the decoder both apply it,
// so the log never holds a record its replay would refuse.
func ValidateWALRep(tag RepTag, rep repr.Representation, n int) error {
	if tag.Method != RepSAPLA {
		return fmt.Errorf("%w: %d", ErrWALRepMethod, tag.Method)
	}
	lin, ok := rep.(repr.Linear)
	if !ok {
		return fmt.Errorf("tsio: cannot log representation %T", rep)
	}
	if lin.N != n {
		return fmt.Errorf("tsio: representation over %d points beside %d values", lin.N, n)
	}
	if err := lin.Validate(); err != nil {
		return fmt.Errorf("tsio: %w", err)
	}
	for i, s := range lin.Segs {
		if math.IsNaN(s.Line.A) || math.IsInf(s.Line.A, 0) || math.IsNaN(s.Line.B) || math.IsInf(s.Line.B, 0) {
			return fmt.Errorf("tsio: representation segment %d has a non-finite coefficient", i)
		}
	}
	return nil
}

// AppendWALRecord appends r's binary encoding to dst and returns the
// extended slice. Delete records must not carry values, only op 3 carries a
// representation, and it must pass ValidateWALRep. On error dst is returned
// unextended.
func AppendWALRecord(dst []byte, r WALRecord) ([]byte, error) {
	switch r.Op {
	case WALIngest:
	case WALIngestRep:
		if err := ValidateWALRep(r.Tag, r.Rep, len(r.Values)); err != nil {
			return dst, err
		}
	case WALDelete:
		if len(r.Values) != 0 {
			return dst, fmt.Errorf("tsio: delete record carries %d values", len(r.Values))
		}
	default:
		return dst, fmt.Errorf("%w: %d", ErrWALRecordOp, r.Op)
	}
	if r.Op != WALIngestRep && r.Rep != nil {
		return dst, fmt.Errorf("tsio: op %d record carries a representation", r.Op)
	}
	if len(r.Values) > MaxWALValues {
		return dst, fmt.Errorf("tsio: wal record has %d values, limit %d", len(r.Values), MaxWALValues)
	}
	dst = append(dst, byte(r.Op))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.ID))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Values)))
	for _, v := range r.Values {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	if r.Op != WALIngestRep {
		return dst, nil
	}
	lin := r.Rep.(repr.Linear)
	dst = append(dst, byte(r.Tag.Method))
	dst = binary.LittleEndian.AppendUint16(dst, r.Tag.Gen)
	dst = binary.LittleEndian.AppendUint32(dst, r.Tag.M)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(lin.Segs)))
	for _, s := range lin.Segs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Line.A))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Line.B))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(s.R))
	}
	return dst, nil
}

// DecodeWALRecord decodes exactly one record from b. The whole buffer must
// be consumed: trailing bytes mean the frame length and the record disagree,
// which is corruption, not concatenation. An op-3 representation must pass
// ValidateWALRep.
func DecodeWALRecord(b []byte) (WALRecord, error) {
	var r WALRecord
	if len(b) < walRecordHeader {
		return r, fmt.Errorf("%w: %d bytes", ErrWALRecordShort, len(b))
	}
	r.Op = WALOp(b[0])
	if r.Op != WALIngest && r.Op != WALDelete && r.Op != WALIngestRep {
		return r, fmt.Errorf("%w: %d", ErrWALRecordOp, b[0])
	}
	r.ID = int64(binary.LittleEndian.Uint64(b[1:9]))
	count := binary.LittleEndian.Uint32(b[9:13])
	if count > MaxWALValues {
		return r, fmt.Errorf("tsio: wal record claims %d values, limit %d", count, MaxWALValues)
	}
	if r.Op == WALDelete && count != 0 {
		return r, fmt.Errorf("tsio: delete record claims %d values", count)
	}
	valuesEnd := walRecordHeader + 8*int(count)
	want := valuesEnd
	var segs uint32
	if r.Op == WALIngestRep {
		if len(b) < valuesEnd+walRepHeader {
			return r, fmt.Errorf("%w: %d bytes for %d values and a representation", ErrWALRecordShort, len(b), count)
		}
		// Strictly increasing endpoints below count allow at most count
		// segments; checking that first bounds the allocation below.
		if segs = binary.LittleEndian.Uint32(b[valuesEnd+7:]); segs > count {
			return r, fmt.Errorf("tsio: wal record claims %d segments for %d values", segs, count)
		}
		want += WALRepSize(int(segs))
	}
	if len(b) != want {
		return r, fmt.Errorf("%w: %d bytes for %d values (want %d)", ErrWALRecordShort, len(b), count, want)
	}
	if count > 0 {
		r.Values = make([]float64, count)
		for i := range r.Values {
			r.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[walRecordHeader+8*i:]))
		}
	}
	if r.Op != WALIngestRep {
		return r, nil
	}
	rb := b[valuesEnd:]
	r.Tag = RepTag{
		Method: RepMethod(rb[0]),
		Gen:    binary.LittleEndian.Uint16(rb[1:]),
		M:      binary.LittleEndian.Uint32(rb[3:]),
	}
	lin := repr.Linear{N: int(count), Segs: make([]repr.LinearSeg, segs)}
	for i := range lin.Segs {
		sb := rb[walRepHeader+walRepSeg*i:]
		lin.Segs[i] = repr.LinearSeg{
			Line: segment.Line{
				A: math.Float64frombits(binary.LittleEndian.Uint64(sb)),
				B: math.Float64frombits(binary.LittleEndian.Uint64(sb[8:])),
			},
			R: int(binary.LittleEndian.Uint32(sb[16:])),
		}
	}
	r.Rep = lin
	if err := ValidateWALRep(r.Tag, r.Rep, int(count)); err != nil {
		return r, err
	}
	return r, nil
}
