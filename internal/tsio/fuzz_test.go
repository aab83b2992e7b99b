package tsio

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadSeries must never panic and must round-trip whatever it accepts.
func FuzzReadSeries(f *testing.F) {
	f.Add("1\n2\n3\n")
	f.Add("1,2,3")
	f.Add("# comment\n1e9\n-2.5\n")
	f.Add("")
	f.Add("nan")
	f.Add("1;;2")
	f.Add("0x1p-1074")
	f.Fuzz(func(t *testing.T, input string) {
		s, err := ReadSeries(strings.NewReader(input))
		if err != nil {
			return
		}
		if len(s) == 0 {
			t.Fatal("accepted input produced an empty series")
		}
		var buf bytes.Buffer
		if err := WriteSeries(&buf, s); err != nil {
			t.Fatal(err)
		}
		back, err := ReadSeries(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if len(back) != len(s) {
			t.Fatalf("round trip changed length: %d → %d", len(s), len(back))
		}
	})
}

// FuzzWALRecord feeds arbitrary bytes through the binary WAL-record codec,
// op 4's decimal values and an older server's representation tails included:
// decoding must never panic, and anything that decodes must re-encode
// byte-identically (decode(encode(r)) == r is the replay-stability contract).
func FuzzWALRecord(f *testing.F) {
	seed, _ := AppendWALRecord(nil, WALRecord{Op: WALIngest, ID: 7, Values: []float64{1, -2.5, 3e9}})
	f.Add(seed)
	del, _ := AppendWALRecord(nil, WALRecord{Op: WALDelete, ID: 12})
	f.Add(del)
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add(bytes.Repeat([]byte{0xFF}, 13))
	withRep := legacyRecord(3, 9, wiggle(6, false), 1, 5)
	f.Add(withRep)
	f.Add(withRep[:len(withRep)-20])
	dec, _ := AppendWALRecord(nil, WALRecord{Op: WALIngestDecimal, ID: 5, Values: []float64{0.25, -1.5, 3}})
	f.Add(dec)
	decRep := legacyRecord(WALIngestDecimal, 9, wiggle(6, true), 1, 5)
	f.Add(decRep)
	f.Add(decRep[:len(decRep)-20])
	f.Fuzz(func(t *testing.T, input []byte) {
		rec, err := DecodeWALRecord(input)
		if err != nil {
			return
		}
		enc, err := AppendWALRecord(nil, rec)
		if err != nil {
			t.Fatalf("decoded record failed to re-encode: %v", err)
		}
		if !bytes.Equal(enc, input) {
			t.Fatalf("re-encode differs from accepted input:\n in  %x\n out %x", input, enc)
		}
	})
}

// FuzzDecodeRepresentation must never panic and anything it accepts must
// reconstruct without panicking.
func FuzzDecodeRepresentation(f *testing.F) {
	f.Add(`{"kind":"linear","n":4,"a":[1],"b":[0],"r":[3]}`)
	f.Add(`{"kind":"constant","n":4,"v":[1],"r":[3]}`)
	f.Add(`{"kind":"paa","n":4,"v":[1,2]}`)
	f.Add(`{"kind":"cheby","n":4,"coefs":[1,0.5]}`)
	f.Add(`{"kind":"sax","n":4,"symbols":[0,1],"alphabet":4,"sigma":1}`)
	f.Add(`{}`)
	f.Add(`{"kind":"linear","n":-1,"a":[1],"b":[0],"r":[3]}`)
	f.Fuzz(func(t *testing.T, input string) {
		rep, err := DecodeRepresentation(strings.NewReader(input))
		if err != nil {
			return
		}
		n := rep.Len()
		if n < 0 || n > 1<<20 {
			return // absurd sizes: skip reconstruction
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("reconstruct panicked on %q: %v", input, r)
			}
		}()
		_ = rep.Reconstruct()
	})
}
