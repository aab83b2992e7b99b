package tsio

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// refDecimalExponent is DecimalExponent by way of strconv: the smallest e
// whose correctly rounded e-place decimal m of every value is below 2³¹ in
// magnitude and reads back, as "m e-e", to the value's bits.
func refDecimalExponent(values []float64) (int, bool) {
	for e := 0; e < len(pow10); e++ {
		all := true
		for _, v := range values {
			m, err := strconv.ParseInt(stripPoint(strconv.FormatFloat(math.Abs(v), 'f', e, 64)), 10, 64)
			if err != nil || m >= maxMantissa {
				all = false
				break
			}
			if math.Signbit(v) {
				m = -m
			}
			back, err := strconv.ParseFloat(strconv.FormatInt(m, 10)+"e-"+strconv.Itoa(e), 64)
			if err != nil || math.Float64bits(back) != math.Float64bits(v) {
				all = false
				break
			}
		}
		if all {
			return e, true
		}
	}
	return 0, false
}

// stripPoint drops the decimal point of an 'f'-formatted number.
func stripPoint(s string) string {
	for i := range s {
		if s[i] == '.' {
			return s[:i] + s[i+1:]
		}
	}
	return s
}

// TestDecimalFormProperty: over more than 10⁵ values of every kind a client
// sends — six decimals in 'f' and six significant digits in 'g' form, values
// at the 5e-05 scale, mantissas of ±(2³¹−1) and just past them, full-precision
// walks, −0 and non-finite values — DecimalExponent agrees with the strconv
// reference, an op-4 record is written exactly when it finds a form, and
// every value comes back with its bits.
func TestDecimalFormProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	walk := func(n int) []float64 {
		v, x := make([]float64, n), 0.0
		for i := range v {
			x += rng.NormFloat64()
			v[i] = x
		}
		return v
	}
	text := func(v []float64, format byte, prec int) []float64 {
		for i, x := range v {
			var err error
			if v[i], err = strconv.ParseFloat(strconv.FormatFloat(x, format, prec, 64), 64); err != nil {
				t.Fatal(err)
			}
		}
		return v
	}
	families := []struct {
		name    string
		decimal bool // every series of the family has a decimal form
		gen     func(n int) []float64
	}{
		{"six decimals 'f'", true, func(n int) []float64 { return text(walk(n), 'f', 6) }},
		{"six digits 'g'", true, func(n int) []float64 {
			// One scale a series, as a sensor writes: 1 ≤ |v| < 10 times 10^k.
			v, k := make([]float64, n), math.Pow(10, float64(rng.Intn(7)-4))
			for i := range v {
				v[i] = (1 + 9*rng.Float64()) * k * float64(1-2*rng.Intn(2))
			}
			return text(v, 'g', 6)
		}},
		{"5e-05 scale", true, func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(5*(rng.Intn(20001)-10000)) / 1e5
			}
			return v
		}},
		{"extreme mantissas", true, func(n int) []float64 {
			p := pow10[rng.Intn(len(pow10))]
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(rng.Int63n(maxMantissa)-rng.Int63n(maxMantissa)) / p
			}
			v[0], v[n-1] = math.MaxInt32/p, -math.MaxInt32/p
			return v
		}},
		{"mantissa 2^31", false, func(n int) []float64 {
			v := text(walk(n), 'f', 3)
			v[rng.Intn(n)] = (1 << 31) / 1e3
			return v
		}},
		{"full precision", false, walk},
		{"negative zero", false, func(n int) []float64 {
			v := text(walk(n), 'f', 6)
			v[rng.Intn(n)] = math.Copysign(0, -1)
			return v
		}},
		{"non-finite", false, func(n int) []float64 {
			v := text(walk(n), 'f', 6)
			v[rng.Intn(n)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			return v
		}},
	}
	values := 0
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			for trial := 0; trial < 60; trial++ {
				v := fam.gen([]int{1, 7, 256, 1024}[trial%4])
				values += len(v)
				e, ok := DecimalExponent(v)
				if re, rok := refDecimalExponent(v); e != re || ok != rok {
					t.Fatalf("trial %d: DecimalExponent = %d, %v; strconv says %d, %v", trial, e, ok, re, rok)
				}
				if ok != fam.decimal {
					t.Fatalf("trial %d: decimal form %v, want %v", trial, ok, fam.decimal)
				}
				rec := WALRecord{Op: WALIngestDecimal, ID: int64(trial), Values: v}
				enc, err := AppendWALRecord(nil, rec)
				if !ok {
					if !errors.Is(err, ErrWALNotDecimal) {
						t.Fatalf("trial %d: op 4 of values without a decimal form: %v", trial, err)
					}
					rec.Op = WALIngest
					if enc, err = AppendWALRecord(nil, rec); err != nil {
						t.Fatal(err)
					}
				} else if err != nil {
					t.Fatal(err)
				}
				back, err := DecodeWALRecord(enc)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				for i := range v {
					if math.Float64bits(back.Values[i]) != math.Float64bits(v[i]) {
						t.Fatalf("trial %d value %d: %v came back as %v", trial, i, v[i], back.Values[i])
					}
				}
			}
		})
	}
	if values < 1e5 {
		t.Fatalf("checked %d values, want at least 10⁵", values)
	}
}

// BenchmarkAppendWALRecord encodes one ingest record of n values into a
// reused buffer: six-decimal values as op 4, with the exponent search, and
// full-precision values as op 1, the float64 bits.
func BenchmarkAppendWALRecord(b *testing.B) {
	for _, form := range []string{"decimal", "f64"} {
		for _, n := range []int{256, 1024} {
			b.Run(fmt.Sprintf("%s/n%d", form, n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(int64(n)))
				rec := WALRecord{Op: WALIngest, ID: 1, Values: make([]float64, n)}
				x := 0.0
				for i := range rec.Values {
					x += rng.NormFloat64()
					rec.Values[i] = x
				}
				if form == "decimal" {
					rec.Op = WALIngestDecimal
					for i, v := range rec.Values {
						rec.Values[i] = math.Round(v*1e6) / 1e6
					}
				}
				buf, err := AppendWALRecord(nil, rec)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(8 * n))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if buf, err = AppendWALRecord(buf[:0], rec); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
