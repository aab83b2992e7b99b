package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"strconv"
	"sync"

	"sapla/internal/ts"
)

// maxPooledBody caps the buffers bodyBufs keeps. sync.Pool's victim cache
// holds a returned buffer across one more GC cycle, so pooling a bulk-load
// body (640 KB–2.6 MB) keeps it live through a forced collection; bodies of
// single queries and writes (≤ 20 KB at 1024 points) are the ones worth
// reusing.
const maxPooledBody = 64 << 10

// bodyBufs pools the buffers request bodies are read into. Nothing decoded
// from a body references it, so a buffer goes back as soon as decoding ends.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeBody reads the size-limited request body and decodes it into v, one
// of the five request types, translating size-limit and syntax failures into
// client errors. It reports whether decoding succeeded. The buffer grows as
// the bytes arrive, so the allocation follows what the client sent, never
// what its Content-Length announced; a body that cannot be read to its end is
// rejected even when a complete object arrived first.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(r.Body)
	if err == nil {
		var fast bool
		if fast, err = decodeRequest(buf.Bytes(), v); fast {
			s.metrics.decodeFast.Add(1)
		} else {
			s.metrics.decodeFallback.Add(1)
		}
	}
	if buf.Cap() <= maxPooledBody {
		bodyBufs.Put(buf)
	}
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, http.StatusRequestEntityTooLarge,
			"request body exceeds %d bytes", tooBig.Limit)
		return false
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		writeErr(w, http.StatusServiceUnavailable, "request body not read within %d ms", s.cfg.RequestTimeout.Milliseconds())
		return false
	}
	writeErr(w, http.StatusBadRequest, "invalid JSON: %v", err)
	return false
}

// decodeRequest decodes body into v, a pointer to a zero request value. The
// hand-written scanner takes the bodies clients normally send; it accepts a
// strict subset of what encoding/json accepts and assigns exactly what
// encoding/json would. Everything else — and every rejection — goes to
// encoding/json on the same bytes and a target zero again, so verdicts and
// error texts are its own. fast reports which of the two decoded the body.
func decodeRequest(body []byte, v any) (fast bool, err error) {
	sc := scanner{b: body}
	switch q := v.(type) {
	case *knnRequest:
		if fast = sc.knn(q); !fast {
			*q = knnRequest{}
		}
	case *rangeRequest:
		if fast = sc.rangeQuery(q); !fast {
			*q = rangeRequest{}
		}
	case *ingestRequest:
		if fast = sc.ingest(q); !fast {
			*q = ingestRequest{}
		}
	case *ingestBatchRequest:
		if fast = sc.ingestBatch(q); !fast {
			*q = ingestBatchRequest{}
		}
	case *batchRequest:
		if fast = sc.batch(q); !fast {
			*q = batchRequest{}
		}
	}
	if fast {
		return true, nil
	}
	return false, json.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// scanner walks one request body. Its methods return false on anything
// outside the accepted subset: a key that is not one of the target's
// lower-case names verbatim (unknown, escaped, case-variant) or that repeats,
// a value that is not an RFC 8259 number in the target's range where a number
// belongs (null, a string, 1e999, 10.0 for an int), or any syntax error.
// Bytes after the object's closing brace are not looked at, as
// json.Decoder.Decode does not look at them. The per-type walkers fill *q as
// they go; what a declined body left there decodeRequest clears again.
type scanner struct {
	b []byte
	i int
}

// peek skips whitespace and returns the byte at the cursor; 0 at the end of
// the body.
func (sc *scanner) peek() byte {
	for ; sc.i < len(sc.b); sc.i++ {
		if c := sc.b[sc.i]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
	}
	return 0
}

// next is peek, consuming the byte.
func (sc *scanner) next() byte {
	c := sc.peek()
	if sc.i < len(sc.b) {
		sc.i++
	}
	return c
}

// field moves to the next member of the object being walked (first: the
// cursor is right behind its opening brace) and returns the raw bytes
// between the key's quotes with the cursor behind the colon. A nil key with
// ok set is the closing brace. A key holding an escape comes back with its
// backslash and matches no name.
func (sc *scanner) field(first bool) (key []byte, ok bool) {
	c := sc.next()
	if c == '}' {
		return nil, true
	}
	if !first {
		if c != ',' {
			return nil, false
		}
		c = sc.next()
	}
	if c != '"' {
		return nil, false
	}
	n := bytes.IndexByte(sc.b[sc.i:], '"')
	if n < 0 {
		return nil, false
	}
	key = sc.b[sc.i : sc.i+n : sc.i+n]
	sc.i += n + 1
	return key, sc.next() == ':'
}

// object walks one object, handing each key to member with the cursor on
// its value; member returns false for a key or value outside the subset.
func (sc *scanner) object(member func(key []byte) bool) bool {
	if sc.next() != '{' {
		return false
	}
	for first := true; ; first = false {
		key, ok := sc.field(first)
		if !ok || key == nil {
			return ok
		}
		if !member(key) {
			return false
		}
	}
}

// element moves to the next element of the array being walked (first: the
// cursor is right behind its opening bracket) and reports whether there is
// one; ok is false when the array neither ends nor continues here.
func (sc *scanner) element(first bool) (more, ok bool) {
	switch c := sc.peek(); {
	case c == ']':
		sc.i++
		return false, true
	case first:
		return true, true
	case c == ',':
		sc.i++
		return true, true
	default:
		return false, false
	}
}

// array walks one array of objects, calling elem with the cursor on each.
func (sc *scanner) array(elem func() bool) bool {
	if sc.next() != '[' {
		return false
	}
	for first := true; ; first = false {
		more, ok := sc.element(first)
		if !ok || !more {
			return ok
		}
		if !elem() {
			return false
		}
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// maxExactMant is the largest integer mantissa the number fast path takes:
// every integer up to 2⁵³ is a float64 exactly.
const maxExactMant = 1 << 53

// exactPow10 holds the powers of ten that are float64s exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// decimal is a number token's value as number gathers it: its digits as the
// integer mant, divided by 10^frac and negated if neg. mant stops growing
// once it passes maxExactMant, so it is only the token's digits when it is at
// most that. A token with an exponent sets exp and is left to strconv:
// bench/loadgen writes one only for |v| < 1e-4, about one value in 18 000.
type decimal struct {
	mant uint64
	frac uint // digits after the decimal point
	neg  bool
	exp  bool
}

// exact returns the decimal's float64 when the token has no exponent and
// both mant and 10^frac are float64s exactly. One IEEE division of two exact
// operands rounds the true decimal value correctly, which is what
// strconv.ParseFloat returns too (its own exact fast path, Clinger's), so the
// bits are the same. Anything else reports false and is strconv's.
func (d decimal) exact() (float64, bool) {
	if d.exp || d.mant > maxExactMant || d.frac >= uint(len(exactPow10)) {
		return 0, false
	}
	f := float64(d.mant) / exactPow10[d.frac]
	if d.neg {
		f = -f // -0 for a negative zero, as strconv
	}
	return f, true
}

// number consumes one number token of the RFC 8259 grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, the validation
// encoding/json applies before it hands a literal to strconv, and gathers
// the token's decimal value on the way.
func (sc *scanner) number() (tok []byte, d decimal, ok bool) {
	sc.peek()
	b, i, start := sc.b, sc.i, sc.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var mant uint64
	switch {
	case i == len(b):
		return nil, d, false
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i, mant = digits(b, i, 0)
	default:
		return nil, d, false
	}
	var frac uint
	if i < len(b) && b[i] == '.' {
		from := i + 1
		if i, mant = digits(b, from, mant); i == from {
			return nil, d, false
		}
		frac = uint(i - from)
	}
	exp := i < len(b) && (b[i] == 'e' || b[i] == 'E')
	if exp {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		from := i
		if i, _ = digits(b, from, 0); i == from {
			return nil, d, false
		}
	}
	sc.i = i
	return b[start:i], decimal{mant, frac, neg, exp}, true
}

// digits consumes the run of decimal digits at b[i:] and returns where it
// ends and mant with the digits appended. mant stops growing once it passes
// maxExactMant; past it a number only grows, so it stays out of the exact
// range, and it never overflows.
func digits(b []byte, i int, mant uint64) (int, uint64) {
	for ; i < len(b) && isDigit(b[i]); i++ {
		if mant <= maxExactMant {
			mant = mant*10 + uint64(b[i]-'0')
		}
	}
	return i, mant
}

// float reads one float64 the way encoding/json does. A literal in the exact
// case is built from the digits number gathered; any other goes through
// strconv.ParseFloat, whose range error declines the body.
func (sc *scanner) float() (float64, bool) {
	tok, d, ok := sc.number()
	if !ok {
		return 0, false
	}
	if f, ok := d.exact(); ok {
		return f, true
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// integer reads one int; a literal strconv.ParseInt refuses (1e1, 10.0, out
// of range) declines the body.
func (sc *scanner) integer() (int, bool) {
	tok, _, ok := sc.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	return int(n), err == nil
}

// floats reads an array of numbers. A values array holds nothing but
// numbers, so its first ']' ends it and the commas before that size the
// result once; [] yields an empty non-nil slice, as encoding/json does.
func (sc *scanner) floats() (ts.Series, bool) {
	if sc.next() != '[' {
		return nil, false
	}
	end := bytes.IndexByte(sc.b[sc.i:], ']')
	if end < 0 {
		return nil, false
	}
	out := make(ts.Series, 0, bytes.Count(sc.b[sc.i:sc.i+end], []byte{','})+1)
	for first := true; ; first = false {
		more, ok := sc.element(first)
		if !ok || !more {
			return out, ok
		}
		f, ok := sc.float()
		if !ok {
			return nil, false
		}
		out = append(out, f)
	}
}

// once marks bit in *seen and reports whether it was clear: each key may
// appear once.
func once(seen *uint8, bit uint8) bool {
	fresh := *seen&bit == 0
	*seen |= bit
	return fresh
}

func (sc *scanner) knn(q *knnRequest) bool {
	var seen uint8
	return sc.object(func(key []byte) (ok bool) {
		switch {
		case string(key) == "values" && once(&seen, 1):
			q.Values, ok = sc.floats()
		case string(key) == "k" && once(&seen, 2):
			q.K, ok = sc.integer()
		}
		return ok
	})
}

func (sc *scanner) rangeQuery(q *rangeRequest) bool {
	var seen uint8
	return sc.object(func(key []byte) (ok bool) {
		switch {
		case string(key) == "values" && once(&seen, 1):
			q.Values, ok = sc.floats()
		case string(key) == "radius" && once(&seen, 2):
			q.Radius, ok = sc.float()
		}
		return ok
	})
}

func (sc *scanner) ingest(q *ingestRequest) bool {
	var seen uint8
	return sc.object(func(key []byte) (ok bool) {
		switch {
		case string(key) == "values" && once(&seen, 1):
			q.Values, ok = sc.floats()
		case string(key) == "id" && once(&seen, 2):
			var id int
			id, ok = sc.integer()
			q.ID = &id
		}
		return ok
	})
}

func (sc *scanner) ingestBatch(q *ingestBatchRequest) bool {
	var seen uint8
	return sc.object(func(key []byte) bool {
		if string(key) != "series" || !once(&seen, 1) {
			return false
		}
		q.Series = []ingestRequest{} // [] decodes to empty, not nil
		return sc.array(func() bool {
			var item ingestRequest
			ok := sc.ingest(&item)
			q.Series = append(q.Series, item)
			return ok
		})
	})
}

func (sc *scanner) batch(q *batchRequest) bool {
	var seen uint8
	return sc.object(func(key []byte) (ok bool) {
		switch {
		case string(key) == "k" && once(&seen, 1):
			q.K, ok = sc.integer()
		case string(key) == "queries" && once(&seen, 2):
			q.Queries = []batchQuery{} // [] decodes to empty, not nil
			ok = sc.array(func() bool {
				var item batchQuery
				ok := sc.batchQuery(&item)
				q.Queries = append(q.Queries, item)
				return ok
			})
		}
		return ok
	})
}

func (sc *scanner) batchQuery(q *batchQuery) bool {
	var seen uint8
	return sc.object(func(key []byte) (ok bool) {
		if string(key) == "values" && once(&seen, 1) {
			q.Values, ok = sc.floats()
		}
		return ok
	})
}
