package tsio

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sapla/internal/core"
	"sapla/internal/reduce"
	"sapla/internal/repr"
	"sapla/internal/ts"
)

func TestReadSeriesFormats(t *testing.T) {
	tests := []struct {
		name  string
		input string
		want  ts.Series
	}{
		{"one per line", "1\n2\n3\n", ts.Series{1, 2, 3}},
		{"comma", "1,2,3", ts.Series{1, 2, 3}},
		{"mixed separators", "1, 2\t3; 4", ts.Series{1, 2, 3, 4}},
		{"comments and blanks", "# header\n\n1\n# mid\n2\n", ts.Series{1, 2}},
		{"scientific", "1e-3\n-2.5E2\n", ts.Series{0.001, -250}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := ReadSeries(strings.NewReader(tt.input))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tt.want) {
				t.Fatalf("got %v", got)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("got %v, want %v", got, tt.want)
				}
			}
		})
	}
}

func TestReadSeriesErrors(t *testing.T) {
	if _, err := ReadSeries(strings.NewReader("")); err != ErrEmptyInput {
		t.Fatalf("empty input: %v", err)
	}
	if _, err := ReadSeries(strings.NewReader("1\nfoo\n")); err == nil {
		t.Fatal("bad token accepted")
	}
}

func TestSeriesRoundTrip(t *testing.T) {
	s := ts.Series{1.5, -2.25, 1e-9, 12345.678}
	var buf bytes.Buffer
	if err := WriteSeries(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSeries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s {
		if got[i] != s[i] {
			t.Fatalf("round trip: %v vs %v", got, s)
		}
	}
}

func TestDatasetRoundTrip(t *testing.T) {
	rows := []LabeledSeries{
		{Class: 0, Values: ts.Series{1, 2, 3}},
		{Class: 2, Values: ts.Series{-1.5, 0, 4.25}},
	}
	var buf bytes.Buffer
	if err := WriteDataset(&buf, rows); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Class != 0 || got[1].Class != 2 {
		t.Fatalf("got %+v", got)
	}
	for i := range rows {
		for j := range rows[i].Values {
			if got[i].Values[j] != rows[i].Values[j] {
				t.Fatalf("row %d mismatch", i)
			}
		}
	}
}

func TestReadDatasetErrors(t *testing.T) {
	if _, err := ReadDataset(strings.NewReader("")); err != ErrEmptyInput {
		t.Fatalf("empty: %v", err)
	}
	if _, err := ReadDataset(strings.NewReader("1\n")); err == nil {
		t.Fatal("label-only row accepted")
	}
}

func randWalk(seed int64, n int) ts.Series {
	rng := rand.New(rand.NewSource(seed))
	s := make(ts.Series, n)
	var v float64
	for i := range s {
		v += rng.NormFloat64()
		s[i] = v
	}
	return s
}

// Every representation kind survives an encode/decode round trip with an
// identical reconstruction.
func TestRepresentationRoundTrip(t *testing.T) {
	c := randWalk(1, 128)
	methods := append([]reduce.Method{core.New()}, reduce.Baselines()...)
	for _, meth := range methods {
		t.Run(meth.Name(), func(t *testing.T) {
			rep, err := meth.Reduce(c, 12)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := EncodeRepresentation(&buf, rep); err != nil {
				t.Fatal(err)
			}
			back, err := DecodeRepresentation(&buf)
			if err != nil {
				t.Fatal(err)
			}
			a, b := rep.Reconstruct(), back.Reconstruct()
			if len(a) != len(b) {
				t.Fatal("length mismatch")
			}
			for i := range a {
				if math.Abs(a[i]-b[i]) > 1e-12 {
					t.Fatalf("reconstruction differs at %d: %v vs %v", i, a[i], b[i])
				}
			}
			if rep.Segments() != back.Segments() {
				t.Fatal("segment count changed")
			}
		})
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := []string{
		`not json`,
		`{"kind":"martian","n":4}`,
		`{"kind":"linear","n":4}`,
		`{"kind":"linear","n":4,"a":[1],"b":[2],"r":[9]}`, // bad endpoint
		`{"kind":"constant","n":4,"v":[1]}`,               // missing r
		`{"kind":"paa","n":4}`,
		`{"kind":"cheby","n":4}`,
		`{"kind":"sax","n":4,"symbols":[1],"alphabet":1}`,
	}
	for _, c := range cases {
		if _, err := DecodeRepresentation(strings.NewReader(c)); err == nil {
			t.Fatalf("malformed envelope accepted: %s", c)
		}
	}
}

func TestEncodeRejectsUnknownType(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeRepresentation(&buf, fakeRep{}); err == nil {
		t.Fatal("unknown type accepted")
	}
}

// TestEncodeRejectsInvalidLinear: the encoder refuses a linear
// representation the decoder would refuse, and writes nothing.
func TestEncodeRejectsInvalidLinear(t *testing.T) {
	var buf bytes.Buffer
	for _, lin := range []repr.Linear{
		{N: 8},
		{N: 8, Segs: []repr.LinearSeg{{R: 4}, {R: 4}, {R: 7}}},
		{N: 8, Segs: []repr.LinearSeg{{R: 6}}},
	} {
		if err := EncodeRepresentation(&buf, lin); err == nil || buf.Len() != 0 {
			t.Fatalf("encoded %+v: %v, %d bytes", lin, err, buf.Len())
		}
	}
}

type fakeRep struct{}

func (fakeRep) Reconstruct() ts.Series { return nil }
func (fakeRep) Coeffs() []float64      { return nil }
func (fakeRep) Segments() int          { return 0 }
func (fakeRep) Len() int               { return 0 }

var _ repr.Representation = fakeRep{}
