package tsio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// WALOp identifies one write-ahead-log record type.
type WALOp uint8

// WAL record operations. The zero value is invalid so an all-zero buffer
// never decodes as a record. Op 3 is reserved: older servers logged an ingest
// with its SAPLA representation under it, and the codec refuses it.
const (
	WALIngest WALOp = 1 // store Values under ID
	WALDelete WALOp = 2 // remove ID; Values must be empty
	// WALIngestDecimal is WALIngest with Values in decimal form (see
	// DecimalExponent).
	WALIngestDecimal WALOp = 4
)

// WALRecord is one durable mutation of the series store: an ingest carrying
// the raw series, or a delete. The binary form is fixed-width little-endian —
// op byte, int64 ID, uint32 value count, then the values as IEEE-754 bits —
// so encode(decode(b)) is byte-identical and replay never depends on platform
// formatting.
//
// An op-4 ingest stores the values in half the bytes: after the count one
// exponent byte e, then per value an int32 mantissa m, the value being
// float64(m)/10^e. e is the smallest exponent that gives back every value
// bit for bit (DecimalExponent), so a series has one op-4 encoding and
// decode(encode(r)) stays byte-identical. A record ends with its values: the
// representation tail older servers appended to op 4 is refused.
type WALRecord struct {
	Op     WALOp
	ID     int64
	Values []float64
}

// walRecordHeader is the encoded size of the fixed fields: 1 (op) + 8 (id)
// + 4 (count).
const walRecordHeader = 1 + 8 + 4

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

// MaxWALRecordSize is the largest record the codec encodes or decodes: an op-1
// record of MaxWALValues values.
const MaxWALRecordSize = walRecordHeader + 8*MaxWALValues

// Errors returned by the WAL record codec.
var (
	ErrWALRecordShort = errors.New("tsio: wal record has the wrong length")
	ErrWALRecordOp    = errors.New("tsio: wal record has invalid op")
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

// AppendWALRecord appends r's binary encoding to dst and returns the
// extended slice. Delete records must not carry values, and op 4's values
// must have a decimal form (ErrWALNotDecimal). On error dst is returned
// unextended.
func AppendWALRecord(dst []byte, r WALRecord) ([]byte, error) {
	switch r.Op {
	case WALIngest, WALIngestDecimal:
	case WALDelete:
		if len(r.Values) != 0 {
			return dst, fmt.Errorf("tsio: delete record carries %d values", len(r.Values))
		}
	default:
		return dst, fmt.Errorf("%w: %d", ErrWALRecordOp, r.Op)
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
		return dst, nil
	}
	for _, v := range r.Values {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst, nil
}

// DecodeWALRecord decodes exactly one record from b. The whole buffer must
// be consumed: trailing bytes mean the frame length and the record disagree,
// which is corruption, not concatenation. Op 4's exponent must be the one its
// encoder picks: in the table, and the smallest (some mantissa is not a
// multiple of ten). Every error names the op.
func DecodeWALRecord(b []byte) (WALRecord, error) {
	var r WALRecord
	if len(b) < walRecordHeader {
		return r, fmt.Errorf("%w: %d bytes", ErrWALRecordShort, len(b))
	}
	r.Op = WALOp(b[0])
	if r.Op != WALIngest && r.Op != WALDelete && r.Op != WALIngestDecimal {
		return r, fmt.Errorf("%w: %d", ErrWALRecordOp, b[0])
	}
	r.ID = int64(binary.LittleEndian.Uint64(b[1:9]))
	count := binary.LittleEndian.Uint32(b[9:13])
	if count > MaxWALValues {
		return r, fmt.Errorf("tsio: op %d record claims %d values, limit %d", r.Op, count, MaxWALValues)
	}
	if r.Op == WALDelete && count != 0 {
		return r, fmt.Errorf("tsio: delete record claims %d values", count)
	}
	decimal := r.Op == WALIngestDecimal
	want := walRecordHeader + 8*int(count)
	if decimal {
		want = walRecordHeader + 1 + 4*int(count)
	}
	if len(b) != want {
		return r, fmt.Errorf("%w: op %d record of %d values has %d bytes, want %d", ErrWALRecordShort, r.Op, count, len(b), want)
	}
	if decimal {
		e := int(b[walRecordHeader])
		if e >= len(pow10) {
			return r, fmt.Errorf("tsio: op 4 record has decimal exponent %d, limit %d", e, len(pow10)-1)
		}
		return r, decodeDecimal(&r, b[walRecordHeader+1:], e)
	}
	if count > 0 {
		r.Values = make([]float64, count)
		for i := range r.Values {
			r.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[walRecordHeader+8*i:]))
		}
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
			return fmt.Errorf("tsio: op 4 record value %d has mantissa %d, out of range", i, m)
		}
		smallest = smallest || m%10 != 0
		r.Values[i] = float64(m) / p
	}
	if !smallest {
		return fmt.Errorf("tsio: op 4 record's decimal exponent %d is not the smallest", e)
	}
	return nil
}
