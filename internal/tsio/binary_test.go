package tsio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"sapla/internal/repr"
	"sapla/internal/segment"
)

// testTag is a tag the codec accepts.
var testTag = RepTag{Method: RepSAPLA, Gen: 3, M: 12}

// repRecord returns an op-3 record of values 0..n-1 (plus a wiggle) carrying
// their least-squares fit on the given right endpoints.
func repRecord(id int64, n int, endpoints ...int) WALRecord {
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i) + math.Sin(float64(i))
	}
	return WALRecord{Op: WALIngestRep, ID: id, Values: values, Tag: testTag, Rep: repr.FitLinear(values, endpoints)}
}

// decimalRecord returns rec as op 4, its values rounded to six decimals and
// its representation, if any, fitted to them again.
func decimalRecord(rec WALRecord) WALRecord {
	rec.Op = WALIngestDecimal
	rec.Values = append([]float64(nil), rec.Values...)
	for i, v := range rec.Values {
		rec.Values[i] = math.Round(v*1e6) / 1e6
	}
	if lin, ok := rec.Rep.(repr.Linear); ok {
		ends := make([]int, len(lin.Segs))
		for i, s := range lin.Segs {
			ends[i] = s.R
		}
		rec.Rep = repr.FitLinear(rec.Values, ends)
	}
	return rec
}

func TestWALRecordRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		rec  WALRecord
	}{
		{"ingest small", WALRecord{Op: WALIngest, ID: 7, Values: []float64{1, -2.5, 3e9}}},
		{"ingest one value", WALRecord{Op: WALIngest, ID: 0, Values: []float64{0}}},
		{"ingest negative id", WALRecord{Op: WALIngest, ID: -42, Values: []float64{1, 2}}},
		{"ingest extremes", WALRecord{Op: WALIngest, ID: math.MaxInt64,
			Values: []float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, math.Copysign(0, -1)}}},
		{"ingest non-finite bits", WALRecord{Op: WALIngest, ID: 1,
			Values: []float64{math.NaN(), math.Inf(1), math.Inf(-1)}}},
		{"delete", WALRecord{Op: WALDelete, ID: 99}},
		{"ingest rep one segment", repRecord(5, 1, 0)},
		{"ingest rep", repRecord(-6, 64, 9, 30, 31, 63)},
		{"ingest rep extreme tag", WALRecord{Op: WALIngestRep, ID: 1, Values: []float64{1, 2},
			Tag: RepTag{Method: RepSAPLA, Gen: math.MaxUint16, M: math.MaxUint32},
			Rep: repr.Linear{N: 2, Segs: []repr.LinearSeg{{Line: segment.Line{A: -math.MaxFloat64, B: math.Copysign(0, -1)}, R: 1}}}}},
		{"decimal", WALRecord{Op: WALIngestDecimal, ID: 8, Values: []float64{0.123456, -2.5, 3, 0}}},
		{"decimal integers", WALRecord{Op: WALIngestDecimal, ID: -8, Values: []float64{1, -2, 3e9 / 2}}},
		{"decimal no values", WALRecord{Op: WALIngestDecimal, ID: 2}},
		{"decimal extreme mantissas", WALRecord{Op: WALIngestDecimal, ID: 1, Values: []float64{math.MaxInt32 / 1e22, -math.MaxInt32 / 1e22}}},
		{"decimal rep", decimalRecord(repRecord(4, 64, 9, 30, 31, 63))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			enc, err := AppendWALRecord(nil, tc.rec)
			if err != nil {
				t.Fatal(err)
			}
			back, err := DecodeWALRecord(enc)
			if err != nil {
				t.Fatal(err)
			}
			if back.Op != tc.rec.Op || back.ID != tc.rec.ID || len(back.Values) != len(tc.rec.Values) ||
				back.Tag != tc.rec.Tag || !reflect.DeepEqual(back.Rep, tc.rec.Rep) {
				t.Fatalf("round trip %+v -> %+v", tc.rec, back)
			}
			for i := range back.Values {
				if math.Float64bits(back.Values[i]) != math.Float64bits(tc.rec.Values[i]) {
					t.Fatalf("value %d: %x -> %x bits", i,
						math.Float64bits(tc.rec.Values[i]), math.Float64bits(back.Values[i]))
				}
			}
			// Re-encoding must be byte-identical (replay stability).
			enc2, err := AppendWALRecord(nil, back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatal("re-encoding is not byte-identical")
			}
		})
	}
}

func TestWALRecordEncodeRejects(t *testing.T) {
	if _, err := AppendWALRecord(nil, WALRecord{Op: 0, ID: 1}); !errors.Is(err, ErrWALRecordOp) {
		t.Fatalf("zero op: %v", err)
	}
	if _, err := AppendWALRecord(nil, WALRecord{Op: 9, ID: 1}); !errors.Is(err, ErrWALRecordOp) {
		t.Fatalf("unknown op: %v", err)
	}
	if _, err := AppendWALRecord(nil, WALRecord{Op: WALDelete, ID: 1, Values: []float64{1}}); err == nil {
		t.Fatal("delete with values accepted")
	}
	good := repRecord(1, 8, 3, 7)
	for name, mut := range map[string]func(*WALRecord){
		"non-Linear representation": func(r *WALRecord) { r.Rep = repr.PAA{N: 8, Values: []float64{1, 2}} },
		"no representation":         func(r *WALRecord) { r.Rep = nil },
		"zero tag":                  func(r *WALRecord) { r.Tag = RepTag{} },
		"length mismatch":           func(r *WALRecord) { r.Values = r.Values[:7] },
		"invalid representation":    func(r *WALRecord) { r.Rep = repr.Linear{N: 8} },
		"representation on op 1":    func(r *WALRecord) { r.Op = WALIngest },
		"op 4, full precision":      func(r *WALRecord) { r.Op = WALIngestDecimal },
		"op 4, invalid rep": func(r *WALRecord) {
			*r = decimalRecord(*r)
			r.Rep = repr.Linear{N: 8}
		},
		"op 4, zero tag": func(r *WALRecord) {
			*r = decimalRecord(*r)
			r.Tag = RepTag{}
		},
		"op 4, negative zero": func(r *WALRecord) {
			*r = decimalRecord(*r)
			r.Values[3] = math.Copysign(0, -1)
		},
		"op 4, mantissa 2^31": func(r *WALRecord) {
			*r = decimalRecord(*r)
			r.Values[0] = 1 << 31
		},
	} {
		rec := good
		mut(&rec)
		if out, err := AppendWALRecord([]byte{0xEE}, rec); err == nil || len(out) != 1 {
			t.Fatalf("%s: encoded (%d bytes out, err %v)", name, len(out), err)
		}
	}
	if _, err := AppendWALRecord(nil, WALRecord{Op: WALIngestDecimal, Values: []float64{0.1, math.Pi}}); !errors.Is(err, ErrWALNotDecimal) {
		t.Fatalf("op 4 of π: %v", err)
	}
}

func TestWALRecordDecodeRejects(t *testing.T) {
	good, err := AppendWALRecord(nil, WALRecord{Op: WALIngest, ID: 3, Values: []float64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncations", func(t *testing.T) {
		// Every proper prefix must be rejected, never panic.
		for n := 0; n < len(good); n++ {
			if _, err := DecodeWALRecord(good[:n]); err == nil {
				t.Fatalf("prefix of %d bytes accepted", n)
			}
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		if _, err := DecodeWALRecord(append(append([]byte(nil), good...), 0xAA)); err == nil {
			t.Fatal("record with trailing byte accepted")
		}
	})
	t.Run("bit flips in header", func(t *testing.T) {
		// Flipping any header bit must either be caught by the codec itself
		// (op / count checks) or change the decoded record — it must never
		// panic. (Payload integrity is the frame CRC's job, not the codec's.)
		for byteIdx := 0; byteIdx < walRecordHeader; byteIdx++ {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), good...)
				mut[byteIdx] ^= 1 << bit
				rec, err := DecodeWALRecord(mut)
				if err != nil {
					continue
				}
				orig, _ := DecodeWALRecord(good)
				if rec.Op == orig.Op && rec.ID == orig.ID && len(rec.Values) == len(orig.Values) {
					same := true
					for i := range rec.Values {
						if math.Float64bits(rec.Values[i]) != math.Float64bits(orig.Values[i]) {
							same = false
							break
						}
					}
					if same {
						t.Fatalf("flip of byte %d bit %d silently decoded to the original record", byteIdx, bit)
					}
				}
			}
		}
	})
	t.Run("huge claimed count", func(t *testing.T) {
		b := make([]byte, walRecordHeader)
		b[0] = byte(WALIngest)
		b[9], b[10], b[11], b[12] = 0xFF, 0xFF, 0xFF, 0xFF
		if _, err := DecodeWALRecord(b); err == nil {
			t.Fatal("absurd count accepted")
		}
	})
	t.Run("delete with count", func(t *testing.T) {
		b := make([]byte, walRecordHeader+8)
		b[0] = byte(WALDelete)
		b[9] = 1
		if _, err := DecodeWALRecord(b); err == nil {
			t.Fatal("delete with count accepted")
		}
	})

	// Op 3: each case edits a valid encoding of a 16-point series with
	// segments ending at 4, 9 and 15. The representation starts at rep; its
	// segment i at seg(i), with A, B and R at +0, +8 and +16.
	rec := repRecord(3, 16, 4, 9, 15)
	goodRep, err := AppendWALRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeWALRecord(goodRep); err != nil {
		t.Fatalf("valid op-3 record rejected: %v", err)
	}
	rep := walRecordHeader + 8*16
	seg := func(i int) int { return rep + walRepHeader + walRepSeg*i }
	putR := func(b []byte, i int, r uint32) { binary.LittleEndian.PutUint32(b[seg(i)+16:], r) }
	for _, tc := range []struct {
		name string
		edit func([]byte) []byte
		want error
	}{
		{"zero segments", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[rep+7:], 0)
			return b[:seg(0)]
		}, nil},
		{"more segments than values", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[rep+7:], 17)
			return b
		}, nil},
		{"equal endpoints", func(b []byte) []byte { putR(b, 1, 4); return b }, nil},
		{"decreasing endpoints", func(b []byte) []byte { putR(b, 1, 3); return b }, nil},
		{"endpoint past n-1", func(b []byte) []byte { putR(b, 2, 16); return b }, nil},
		{"last endpoint short of n-1", func(b []byte) []byte { putR(b, 2, 14); return b }, nil},
		{"NaN coefficient", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[seg(1):], math.Float64bits(math.NaN()))
			return b
		}, nil},
		{"infinite coefficient", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[seg(2)+8:], math.Float64bits(math.Inf(-1)))
			return b
		}, nil},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0) }, ErrWALRecordShort},
		{"missing segment bytes", func(b []byte) []byte { return b[:len(b)-1] }, ErrWALRecordShort},
		{"no representation", func(b []byte) []byte { return b[:rep] }, ErrWALRecordShort},
		{"unknown method code", func(b []byte) []byte { b[rep] = 2; return b }, ErrWALRepMethod},
		{"zero method code", func(b []byte) []byte { b[rep] = 0; return b }, ErrWALRepMethod},
	} {
		t.Run("op3 "+tc.name, func(t *testing.T) {
			_, err := DecodeWALRecord(tc.edit(append([]byte(nil), goodRep...)))
			if err == nil {
				t.Fatal("decoded")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("err %v, want %v", err, tc.want)
			}
		})
	}

	// Op 4: each case edits a valid encoding of a 16-point six-decimal
	// series, with or without its representation. The exponent byte is at
	// exp, mantissa i at man(i); the representation starts at dRep.
	dec := decimalRecord(rec)
	bare := dec
	bare.Tag, bare.Rep = RepTag{}, nil
	goodDec, err := AppendWALRecord(nil, dec)
	if err != nil {
		t.Fatal(err)
	}
	goodBare, err := AppendWALRecord(nil, bare)
	if err != nil {
		t.Fatal(err)
	}
	const exp = walRecordHeader
	man := func(i int) int { return exp + 1 + 4*i }
	dRep := man(16)
	if goodDec[exp] != 6 || len(goodBare) != dRep {
		t.Fatalf("op-4 layout: exponent %d, %d bytes without the representation", goodDec[exp], len(goodBare))
	}
	for _, tc := range []struct {
		name string
		good []byte
		edit func([]byte) []byte
		want error
	}{
		{"exponent past the table", goodBare, func(b []byte) []byte { b[exp] = byte(len(pow10)); return b }, nil},
		{"exponent not the smallest", goodBare, func(b []byte) []byte {
			b[exp]++
			for i := 0; i < 16; i++ {
				m := int32(binary.LittleEndian.Uint32(b[man(i):]))
				binary.LittleEndian.PutUint32(b[man(i):], uint32(10*m))
			}
			return b
		}, nil},
		{"mantissa -2^31", goodBare, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[man(5):], 1<<31)
			return b
		}, nil},
		{"no exponent", goodBare, func(b []byte) []byte { return b[:exp] }, ErrWALRecordShort},
		{"mantissa bytes short", goodBare, func(b []byte) []byte { return b[:len(b)-1] }, ErrWALRecordShort},
		{"mantissa bytes trailing", goodBare, func(b []byte) []byte { return append(b, 0) }, ErrWALRecordShort},
		{"rep bytes short", goodDec, func(b []byte) []byte { return b[:len(b)-1] }, ErrWALRecordShort},
		{"rep bytes trailing", goodDec, func(b []byte) []byte { return append(b, 0) }, ErrWALRecordShort},
		{"invalid representation", goodDec, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[dRep+walRepHeader+walRepSeg+16:], 4) // equal endpoints
			return b
		}, nil},
		{"unknown method code", goodDec, func(b []byte) []byte { b[dRep] = 2; return b }, ErrWALRepMethod},
	} {
		t.Run("op4 "+tc.name, func(t *testing.T) {
			_, err := DecodeWALRecord(tc.edit(append([]byte(nil), tc.good...)))
			if err == nil {
				t.Fatal("decoded")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("err %v, want %v", err, tc.want)
			}
		})
	}
}
