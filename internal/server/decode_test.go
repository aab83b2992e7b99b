package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"sapla/internal/ts"
)

// requestTargets returns a fresh zero value of each request type decodeBody
// serves.
func requestTargets() []any {
	return []any{&knnRequest{}, &rangeRequest{}, &ingestRequest{}, &ingestBatchRequest{}, &batchRequest{}}
}

// floatBits collects the bit pattern of every float a decoded request holds:
// reflect.DeepEqual takes -0 for 0, the bits do not.
func floatBits(v any) []uint64 {
	var bits []uint64
	add := func(s ts.Series) {
		for _, f := range s {
			bits = append(bits, math.Float64bits(f))
		}
	}
	switch q := v.(type) {
	case *knnRequest:
		add(q.Values)
	case *rangeRequest:
		add(q.Values)
		bits = append(bits, math.Float64bits(q.Radius))
	case *ingestRequest:
		add(q.Values)
	case *ingestBatchRequest:
		for _, item := range q.Series {
			add(item.Values)
		}
	case *batchRequest:
		for _, item := range q.Queries {
			add(item.Values)
		}
	}
	return bits
}

// checkAgainstReference decodes body into every request type with
// decodeRequest and with the encoding/json call it replaced, and requires the
// same verdict, the same error text and the same target.
func checkAgainstReference(t *testing.T, body []byte) {
	t.Helper()
	got, want := requestTargets(), requestTargets()
	for i := range got {
		_, gotErr := decodeRequest(body, got[i])
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(want[i])
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%T: error %v, encoding/json says %v", got[i], gotErr, wantErr)
		}
		if !reflect.DeepEqual(got[i], want[i]) || !reflect.DeepEqual(floatBits(got[i]), floatBits(want[i])) {
			t.Errorf("%T: decoded %+v, encoding/json decodes %+v", got[i], got[i], want[i])
		}
	}
}

// wireSeries returns a z-normalised random walk rounded to six decimals: the
// values the end-to-end benchmark's generator sends (bench/loadgen/gen.go).
func wireSeries(rng *rand.Rand, n int) ts.Series {
	s := randWalk(rng, n).ZNormalize()
	for i, v := range s {
		s[i] = math.Round(v*1e6) / 1e6
	}
	return s
}

// wireValues renders values the way the end-to-end benchmark's generator
// does (bench/loadgen/workload.go): shortest round-trip 'g' floats, no spaces.
func wireValues(b []byte, s ts.Series) []byte {
	b = append(b, `"values":[`...)
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, ']')
}

// wireBodies returns one body per endpoint in the benchmark's wire format,
// in requestTargets order, with values drawn by gen.
func wireBodies(rng *rand.Rand, n int, gen func(*rand.Rand, int) ts.Series) [][]byte {
	knn := append(wireValues([]byte(`{`), gen(rng, n)), `,"k":10}`...)
	rangeQ := append(wireValues([]byte(`{`), gen(rng, n)), `,"radius":12.5}`...)
	ingest := append(wireValues([]byte(`{"id":6000,`), gen(rng, n)), '}')
	bulk := []byte(`{"series":[`)
	batch := []byte(`{"k":10,"queries":[`)
	for i := 0; i < 3; i++ {
		if i > 0 {
			bulk = append(bulk, ',')
			batch = append(batch, ',')
		}
		bulk = append(wireValues(append(bulk, fmt.Sprintf(`{"id":%d,`, i)...), gen(rng, n)), '}')
		batch = append(wireValues(append(batch, '{'), gen(rng, n)), '}')
	}
	return [][]byte{knn, rangeQ, ingest, append(bulk, `]}`...), append(batch, `]}`...)}
}

// decodeCases pins, by name, which decoder takes a k-NN (or, where the case
// needs an id, ingest) body and what comes of it. Every case also seeds the
// differential fuzz test.
var decodeCases = []struct {
	name    string
	body    string
	target  func() any
	fast    bool
	wantErr string // substring; empty = accepted
}{
	{"wire format", `{"values":[1,2.5,-3e-2],"k":10}`, knnTarget, true, ""},
	{"key order", `{"k":10,"values":[1]}`, knnTarget, true, ""},
	{"empty object", `{}`, knnTarget, true, ""},
	{"empty values", `{"values":[]}`, knnTarget, true, ""},
	{"negative zero", `{"values":[-0,0,-0.0]}`, knnTarget, true, ""},
	{"whitespace everywhere", " \n{ \"values\" :\t[ 1 ,\r\n 2 ] , \"k\" : 3 } ", knnTarget, true, ""},
	{"trailing bytes", `{"values":[1],"k":2}{"k":`, knnTarget, true, ""},
	{"explicit id", `{"id":7,"values":[1]}`, ingestTarget, true, ""},
	{"underflow to zero", `{"values":[1e-999]}`, knnTarget, true, ""},

	{"capitalised key", `{"Values":[1]}`, knnTarget, false, ""},
	{"escaped key", `{"\u0076alues":[1]}`, knnTarget, false, ""},
	{"duplicate values", `{"values":[1,2,3],"values":[4]}`, knnTarget, false, ""},
	{"duplicate k", `{"k":1,"k":2}`, knnTarget, false, ""},
	{"unknown key", `{"values":[1],"note":"x"}`, knnTarget, false, ""},
	{"nested unknown objects", `{"meta":{"a":{"values":[9]},"b":[{}]},"values":[1]}`, knnTarget, false, ""},
	{"id null", `{"id":null,"values":[1]}`, ingestTarget, false, ""},
	{"values null", `{"values":null,"k":1}`, knnTarget, false, ""},
	{"null element", `{"values":[1,null]}`, knnTarget, false, ""},
	{"top-level null", `null`, knnTarget, false, ""},

	{"k exponent", `{"values":[1],"k":1e1}`, knnTarget, false, "number 1e1"},
	{"k fraction", `{"values":[1],"k":10.0}`, knnTarget, false, "number 10.0"},
	{"id overflow", `{"id":9223372036854775808,"values":[1]}`, ingestTarget, false, "number 9223372036854775808"},
	{"string element", `{"values":["1"]}`, knnTarget, false, "cannot unmarshal string"},
	{"float overflow", `{"values":[1e999]}`, knnTarget, false, "number 1e999"},
	{"leading zero", `{"values":[01]}`, knnTarget, false, "invalid character '1'"},
	{"bare point", `{"values":[1.]}`, knnTarget, false, "invalid character ']'"},
	{"leading point", `{"values":[.5]}`, knnTarget, false, "invalid character '.'"},
	{"plus sign", `{"values":[+1]}`, knnTarget, false, "invalid character '+'"},
	{"trailing comma", `{"values":[1,]}`, knnTarget, false, "invalid character ']'"},
	{"unterminated", `{"values":[1,2]`, knnTarget, false, "unexpected EOF"},
	{"bare string", `"values"`, knnTarget, false, "cannot unmarshal string"},
	{"top-level array", `[1]`, knnTarget, false, "cannot unmarshal array"},
	{"empty body", ``, knnTarget, false, "EOF"},
}

func knnTarget() any    { return &knnRequest{} }
func ingestTarget() any { return &ingestRequest{} }

func TestDecodeRequestCases(t *testing.T) {
	for _, tc := range decodeCases {
		t.Run(tc.name, func(t *testing.T) {
			fast, err := decodeRequest([]byte(tc.body), tc.target())
			if fast != tc.fast {
				t.Errorf("fast = %v, want %v", fast, tc.fast)
			}
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("rejected: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Errorf("error %v, want one naming %q", err, tc.wantErr)
			}
			checkAgainstReference(t, []byte(tc.body))
		})
	}

	// What the accepted edge cases decode to.
	var knn knnRequest
	if _, err := decodeRequest([]byte(`{"values":[-0]}`), &knn); err != nil || !math.Signbit(knn.Values[0]) {
		t.Errorf("-0 decoded to %v (%v), want the sign kept", knn.Values, err)
	}
	knn = knnRequest{}
	if _, err := decodeRequest([]byte(`{"values":[]}`), &knn); err != nil || knn.Values == nil || len(knn.Values) != 0 {
		t.Errorf("[] decoded to %#v (%v), want empty and non-nil", knn.Values, err)
	}
	var ing ingestRequest
	if _, err := decodeRequest([]byte(`{"id":7,"values":[1]}`), &ing); err != nil || ing.ID == nil || *ing.ID != 7 {
		t.Errorf("id 7 decoded to %v (%v)", ing.ID, err)
	}
}

// TestDecodeRequestWireFormat: the benchmark's bodies take the scanner at
// both of its series lengths, and each decodes as encoding/json decodes it —
// with six-decimal values, which take the number fast path, and with
// full-precision ones, which go through strconv.
func TestDecodeRequestWireFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, gen := range []func(*rand.Rand, int) ts.Series{wireSeries, randWalk} {
		for _, n := range []int{256, 1024} {
			for i, body := range wireBodies(rng, n, gen) {
				target := requestTargets()[i]
				if fast, err := decodeRequest(body, target); !fast || err != nil {
					t.Errorf("n=%d %T: fast %v, err %v", n, target, fast, err)
				}
				checkAgainstReference(t, body)
			}
		}
	}
}

// numberCases are the boundaries of the number fast path and whether a token
// takes it; every other token is strconv's.
var numberCases = []struct {
	tok  string
	fast bool
}{
	{"0", true},
	{"-0", true},
	{"-0.000000", true},
	{"0.5", true},
	{"-1.234567", true},
	{"123456789012345", true},   // 15 significant digits
	{"0.123456789012345", true}, // 15 significant digits, 15 fraction digits
	{"1234567890123456", true},  // 16 significant digits, under 2⁵³
	{"9999999999999999", false}, // 16 significant digits, over 2⁵³
	{"9007199254740992", true},  // 2⁵³
	{"9007199254740993", false}, // 2⁵³ + 1: no longer exact
	{"12345678901234567890", false},
	{"0.0000000000000000000001", true},   // 22 fraction digits
	{"0.00000000000000000000001", false}, // 23 fraction digits
	{"1e5", false},                       // any exponent is strconv's
	{"1E-7", false},
	{"5e-05", false}, // the generator's exponent form, |v| < 1e-4
	{"4.9e-324", false},
	{"1.7976931348623157e308", false},
	{"1e999", false}, // out of range: strconv declines it
	{"-1e999", false},
	{"1e-999", false},
}

// numberRejects are tokens strconv.ParseFloat takes whole and the RFC 8259
// grammar does not.
var numberRejects = []string{"01", "1.", ".5", "+1"}

// TestDecodeNumberFastPath: the scanner reads a number token as
// strconv.ParseFloat does — the same bits and the same accept/decline verdict
// — whether the token takes the exact case or not, and the generator's
// six-decimal values take it unless 'g' writes them with an exponent.
func TestDecodeNumberFastPath(t *testing.T) {
	// read returns what the scanner made of tok, whether it consumed all of
	// it, and whether it took the exact case.
	read := func(tok string) (f float64, whole, fast bool) {
		sc := scanner{b: []byte(tok)}
		_, d, ok := sc.number()
		_, fast = d.exact()
		sc = scanner{b: []byte(tok)}
		f, ok = sc.float()
		return f, ok && sc.i == len(tok), ok && fast
	}
	check := func(tok string) (fast bool) {
		t.Helper()
		got, whole, fast := read(tok)
		want, err := strconv.ParseFloat(tok, 64)
		if whole != (err == nil) || whole && math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%q: scanner %v (accepted %v), strconv %v (%v)", tok, got, whole, want, err)
		}
		return fast
	}
	for _, tc := range numberCases {
		if fast := check(tc.tok); fast != tc.fast {
			t.Errorf("%q: fast path %v, want %v", tc.tok, fast, tc.fast)
		}
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 100000; i++ {
		v := math.Round(rng.NormFloat64()*1e6) / 1e6
		for _, tok := range []string{strconv.FormatFloat(v, 'g', -1, 64), strconv.FormatFloat(v, 'f', 6, 64)} {
			if !check(tok) && !strings.Contains(tok, "e") {
				t.Fatalf("six-decimal value %q missed the fast path", tok)
			}
		}
	}
	for _, tok := range numberRejects {
		if _, whole, _ := read(tok); whole {
			t.Errorf("%q accepted as a number", tok)
		}
	}
}

// FuzzDecodeRequest is the differential test behind decodeRequest's contract:
// on arbitrary bytes and for each request type it must accept, reject and
// assign exactly as json.NewDecoder(bytes.NewReader(b)).Decode does.
func FuzzDecodeRequest(f *testing.F) {
	rng := rand.New(rand.NewSource(12))
	for _, gen := range []func(*rand.Rand, int) ts.Series{wireSeries, randWalk} {
		for _, body := range wireBodies(rng, 8, gen) {
			f.Add(body)
		}
	}
	for _, tc := range numberCases {
		f.Add([]byte(`{"values":[` + tc.tok + `]}`))
	}
	for _, tok := range numberRejects {
		f.Add([]byte(`{"values":[` + tok + `]}`))
	}
	for _, tc := range decodeCases {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstReference(t, body)
	})
}

// TestDecodeAllocs: reading a 256-point k-NN body into a warm buffer and
// decoding it allocates the values slice and nothing else — with six-decimal
// values, which take the number fast path, and with full-precision ones,
// whose string(tok) for strconv must not escape.
func TestDecodeAllocs(t *testing.T) {
	for _, gen := range []func(*rand.Rand, int) ts.Series{wireSeries, randWalk} {
		body := wireBodies(rand.New(rand.NewSource(13)), 256, gen)[0]
		var buf bytes.Buffer
		buf.Grow(maxPooledBody)
		rd := bytes.NewReader(body)
		var req knnRequest
		allocs := testing.AllocsPerRun(100, func() {
			rd.Reset(body)
			buf.Reset()
			if _, err := buf.ReadFrom(rd); err != nil {
				t.Fatal(err)
			}
			if fast, err := decodeRequest(buf.Bytes(), &req); !fast || err != nil || len(req.Values) != 256 {
				t.Fatal(fast, err, len(req.Values))
			}
		})
		if allocs != 1 {
			t.Errorf("decode allocated %v objects per body, want 1 (the values slice)", allocs)
		}
	}
}

// TestDecodeBodyLimit: a body over MaxBodyBytes is 413 whether or not the
// client announced its length — including, since the body is read to its end
// before it is decoded, a valid object followed by more than MaxBodyBytes of
// trailing bytes, which encoding/json's streaming decoder used to accept
// without reading that far.
func TestDecodeBodyLimit(t *testing.T) {
	const limit = 4096
	_, hs := newTestServer(t, Config{M: 12, MaxBodyBytes: limit})
	values := strings.Repeat("1,", limit) + "1"
	cases := []struct {
		name, body string
		want       int
	}{
		{"oversized array", `{"values":[` + values + `],"k":1}`, http.StatusRequestEntityTooLarge},
		{"valid object, oversized tail", `{"values":[1,2,3,4,5,6,7,8],"k":1}` + strings.Repeat(" ", limit), http.StatusRequestEntityTooLarge},
		{"valid object, tail within the limit", `{"values":[1,2,3,4,5,6,7,8],"k":1}` + strings.Repeat(" ", limit/2) + "]", http.StatusOK},
	}
	for _, tc := range cases {
		for _, announced := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/content-length=%v", tc.name, announced), func(t *testing.T) {
				var rd io.Reader = strings.NewReader(tc.body)
				if !announced {
					rd = io.MultiReader(rd) // hides the length: the client sends chunked
				}
				req, err := http.NewRequest("POST", hs.URL+"/v1/knn", rd)
				if err != nil {
					t.Fatal(err)
				}
				if announced != (req.ContentLength > 0) {
					t.Fatalf("ContentLength = %d", req.ContentLength)
				}
				resp, err := hs.Client().Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var errResp errorResponse
				json.NewDecoder(resp.Body).Decode(&errResp)
				if resp.StatusCode != tc.want {
					t.Fatalf("status %d (%s), want %d", resp.StatusCode, errResp.Error, tc.want)
				}
				if tc.want == http.StatusRequestEntityTooLarge && !strings.Contains(errResp.Error, "exceeds 4096 bytes") {
					t.Errorf("413 body %q does not name the limit", errResp.Error)
				}
			})
		}
	}
}

// TestDecodeMetrics: /metrics tells bodies the scanner took from bodies that
// fell back to encoding/json.
func TestDecodeMetrics(t *testing.T) {
	_, hs := newTestServer(t, Config{M: 12})
	for _, body := range []string{
		`{"values":[1,2,3,4,5,6,7,8]}`, // scanner
		`{"Values":[1,2,3,4,5,6,7,8]}`, // capitalised key: encoding/json
		`{"values":[1,2,3,4,5,6,7,8`,   // syntax error: encoding/json, 400
	} {
		resp, err := hs.Client().Post(hs.URL+"/v1/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	var met struct {
		Decode struct{ Fast, Fallback int64 } `json:"decode"`
		Index  struct{ Ingested int64 }       `json:"index"`
	}
	if code := doJSON(t, hs.Client(), "GET", hs.URL+"/metrics", nil, &met); code != http.StatusOK {
		t.Fatalf("metrics returned %d", code)
	}
	if met.Decode.Fast != 1 || met.Decode.Fallback != 2 || met.Index.Ingested != 2 {
		t.Fatalf("decode counters %+v with %d ingested, want fast 1, fallback 2, ingested 2", met.Decode, met.Index.Ingested)
	}
}
