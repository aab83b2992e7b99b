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
// in requestTargets order.
func wireBodies(rng *rand.Rand, n int) [][]byte {
	knn := append(wireValues([]byte(`{`), randWalk(rng, n)), `,"k":10}`...)
	rangeQ := append(wireValues([]byte(`{`), randWalk(rng, n)), `,"radius":12.5}`...)
	ingest := append(wireValues([]byte(`{"id":6000,`), randWalk(rng, n)), '}')
	bulk := []byte(`{"series":[`)
	batch := []byte(`{"k":10,"queries":[`)
	for i := 0; i < 3; i++ {
		if i > 0 {
			bulk = append(bulk, ',')
			batch = append(batch, ',')
		}
		bulk = append(wireValues(append(bulk, fmt.Sprintf(`{"id":%d,`, i)...), randWalk(rng, n)), '}')
		batch = append(wireValues(append(batch, '{'), randWalk(rng, n)), '}')
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
// both of its series lengths, and each decodes as encoding/json decodes it.
func TestDecodeRequestWireFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{256, 1024} {
		for i, body := range wireBodies(rng, n) {
			target := requestTargets()[i]
			if fast, err := decodeRequest(body, target); !fast || err != nil {
				t.Errorf("n=%d %T: fast %v, err %v", n, target, fast, err)
			}
			checkAgainstReference(t, body)
		}
	}
}

// FuzzDecodeRequest is the differential test behind decodeRequest's contract:
// on arbitrary bytes and for each request type it must accept, reject and
// assign exactly as json.NewDecoder(bytes.NewReader(b)).Decode does.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range wireBodies(rand.New(rand.NewSource(12)), 8) {
		f.Add(body)
	}
	for _, tc := range decodeCases {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstReference(t, body)
	})
}

// TestDecodeAllocs: reading a 256-point k-NN body into a warm buffer and
// decoding it allocates the values slice and nothing else.
func TestDecodeAllocs(t *testing.T) {
	body := wireBodies(rand.New(rand.NewSource(13)), 256)[0]
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
