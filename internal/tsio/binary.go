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
	// WALIngestDecimal is WALIngest with Values in decimal form (see
	// DecimalExponent), followed by op 3's Tag and Rep when Rep is set.
	WALIngestDecimal WALOp = 4
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
//
// An op-4 ingest stores the values in half the bytes: after the count one
// exponent byte e, then per value an int32 mantissa m, the value being
// float64(m)/10^e. e is the smallest exponent that gives back every value
// bit for bit (DecimalExponent), so a series has one op-4 encoding and
// decode(encode(r)) stays byte-identical. The tag and representation follow
// as in op 3 when Rep is set; the record's length tells the decoder whether
// they are there. internal/wal writes ops 1, 2 and 4 without a
// representation; it reads op 3, and op 4 with one, from logs written while
// ingests logged their representation.
type WALRecord struct {
	Op     WALOp
	ID     int64
	Values []float64
	Tag    RepTag              // op 3, and op 4 with a Rep
	Rep    repr.Representation // op 3, or op 4 optionally: a repr.Linear over Values
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

// pow10 holds the powers of ten that a float64 represents exactly: the
// exponents an op-4 record may use.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// maxMantissa bounds an op-4 mantissa's magnitude, which an int32 holds.
const maxMantissa = 1 << 31

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
	ErrWALNotDecimal  = errors.New("tsio: wal record values have no decimal form")
)

// DecimalExponent returns the smallest e ≤ 22 under which every value v is
// float64(m)/10^e, bit for bit, for m = round(v·10^e) with |m| < 2³¹; ok is
// false when no e is. The test is one IEEE division of two exact operands
// (m and 10^e are integers below 2⁵³), and the decoder of an op-4 record
// makes exactly that division, so it gets every value back. Short decimals
// such as six-decimal sensor readings have a decimal form; −0, NaN, ±Inf,
// full-precision values and magnitudes of 2³¹ or more do not.
func DecimalExponent(values []float64) (e int, ok bool) {
	i, from := 0, 0 // values[from:i] are exact at e
	for {
		n, more := exactPrefix(values[i:], e)
		if i += n; i == len(values) {
			break
		}
		if !more || e == len(pow10)-1 {
			return 0, false
		}
		e, from = e+1, i
	}
	// A value exact at some exponent stays exact at a larger one (its
	// mantissa only gains zeros) unless that mantissa reaches 2³¹, so the
	// values before from are checked again at e.
	if n, _ := exactPrefix(values[:from], e); n < from {
		return 0, false
	}
	return e, true
}

// exactPrefix returns how many leading values v are float64(m)/10^e for
// m = round(v·10^e), and whether a larger exponent could make the next one
// so: not once its |m| reaches 2³¹, which a larger exponent only grows, nor
// for a non-finite value.
func exactPrefix(values []float64, e int) (int, bool) {
	p := pow10[e]
	for i, v := range values {
		x := v * p
		if !(math.Abs(x) < maxMantissa-0.5) {
			return i, false
		}
		// Through an integer, so a −0 mantissa is 0 and −0 never matches.
		if math.Float64bits(float64(roundMantissa(x))/p) != math.Float64bits(v) {
			return i, true
		}
	}
	return len(values), true
}

// roundMantissa rounds x, |x| < 2³¹ − ½, to the nearest integer. A tie may go
// either way: the value of an exact decimal lies within 10⁻⁶ of its mantissa,
// and for any other the division that follows fails whatever m is.
func roundMantissa(x float64) int32 {
	return int32(x + math.Copysign(0.5, x))
}

// WALRepSize returns how many bytes an op-3 or op-4 record spends on the tag
// and a representation of segs segments.
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
// extended slice. Delete records must not carry values, only ops 3 and 4
// carry a representation, and it must pass ValidateWALRep; op 3 must carry
// one. Op 4's values must have a decimal form (ErrWALNotDecimal). On error
// dst is returned unextended.
func AppendWALRecord(dst []byte, r WALRecord) ([]byte, error) {
	switch r.Op {
	case WALIngest:
	case WALIngestRep:
		if err := ValidateWALRep(r.Tag, r.Rep, len(r.Values)); err != nil {
			return dst, err
		}
	case WALIngestDecimal:
		if r.Rep != nil {
			if err := ValidateWALRep(r.Tag, r.Rep, len(r.Values)); err != nil {
				return dst, err
			}
		}
	case WALDelete:
		if len(r.Values) != 0 {
			return dst, fmt.Errorf("tsio: delete record carries %d values", len(r.Values))
		}
	default:
		return dst, fmt.Errorf("%w: %d", ErrWALRecordOp, r.Op)
	}
	if (r.Op == WALIngest || r.Op == WALDelete) && r.Rep != nil {
		return dst, fmt.Errorf("tsio: op %d record carries a representation", r.Op)
	}
	if len(r.Values) > MaxWALValues {
		return dst, fmt.Errorf("tsio: wal record has %d values, limit %d", len(r.Values), MaxWALValues)
	}
	e := 0
	if r.Op == WALIngestDecimal {
		var ok bool
		if e, ok = DecimalExponent(r.Values); !ok {
			return dst, ErrWALNotDecimal
		}
	}
	dst = append(dst, byte(r.Op))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.ID))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Values)))
	if r.Op == WALIngestDecimal {
		dst = append(dst, byte(e))
		p := pow10[e]
		for _, v := range r.Values {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(roundMantissa(v*p)))
		}
	} else {
		for _, v := range r.Values {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	lin, ok := r.Rep.(repr.Linear)
	if !ok {
		return dst, nil
	}
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
// which is corruption, not concatenation. A representation must pass
// ValidateWALRep, and op 4's exponent must be the one its encoder picks: in
// the table, and the smallest (some mantissa is not a multiple of ten).
func DecodeWALRecord(b []byte) (WALRecord, error) {
	var r WALRecord
	if len(b) < walRecordHeader {
		return r, fmt.Errorf("%w: %d bytes", ErrWALRecordShort, len(b))
	}
	r.Op = WALOp(b[0])
	if r.Op != WALIngest && r.Op != WALDelete && r.Op != WALIngestRep && r.Op != WALIngestDecimal {
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
	decimal := r.Op == WALIngestDecimal
	valuesEnd := walRecordHeader + 8*int(count)
	if decimal {
		valuesEnd = walRecordHeader + 1 + 4*int(count)
	}
	if len(b) < valuesEnd {
		return r, fmt.Errorf("%w: %d bytes for %d values (want %d)", ErrWALRecordShort, len(b), count, valuesEnd)
	}
	hasRep := r.Op == WALIngestRep || decimal && len(b) > valuesEnd
	want := valuesEnd
	var segs uint32
	if hasRep {
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
	if decimal {
		e := int(b[walRecordHeader])
		if e >= len(pow10) {
			return r, fmt.Errorf("tsio: wal record has decimal exponent %d, limit %d", e, len(pow10)-1)
		}
		if err := decodeDecimal(&r, b[walRecordHeader+1:valuesEnd], e); err != nil {
			return r, err
		}
	} else if count > 0 {
		r.Values = make([]float64, count)
		for i := range r.Values {
			r.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[walRecordHeader+8*i:]))
		}
	}
	if !hasRep {
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

// decodeDecimal sets r.Values from op 4's mantissas mb under exponent e. It
// refuses −2³¹, which no encoder writes, and an exponent one smaller would
// also give back: every mantissa a multiple of ten.
func decodeDecimal(r *WALRecord, mb []byte, e int) error {
	if len(mb) > 0 {
		r.Values = make([]float64, len(mb)/4)
	}
	p := pow10[e]
	smallest := e == 0
	for i := range r.Values {
		m := int32(binary.LittleEndian.Uint32(mb[4*i:]))
		if m == math.MinInt32 {
			return fmt.Errorf("tsio: wal record value %d has mantissa %d, out of range", i, m)
		}
		smallest = smallest || m%10 != 0
		r.Values[i] = float64(m) / p
	}
	if !smallest {
		return fmt.Errorf("tsio: wal record's decimal exponent %d is not the smallest", e)
	}
	return nil
}
