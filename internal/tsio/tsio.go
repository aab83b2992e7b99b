// Package tsio provides the serialization substrate: reading and writing raw
// time series (one value per line, or comma/whitespace separated), CSV
// dataset dumps with class labels, and a JSON envelope for persisting any
// reduced representation so indexes can be rebuilt without re-reducing.
package tsio

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"sapla/internal/repr"
	"sapla/internal/segment"
	"sapla/internal/ts"
)

// ErrEmptyInput is returned when no numeric values were found.
var ErrEmptyInput = errors.New("tsio: no input values")

// ReadSeries parses a single series: whitespace- or comma-separated numbers,
// with '#'-prefixed comment lines skipped.
func ReadSeries(r io.Reader) (ts.Series, error) {
	var out ts.Series
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		vals, err := parseLine(sc.Text())
		if err != nil {
			return nil, err
		}
		out = append(out, vals...)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, ErrEmptyInput
	}
	return out, nil
}

// ReadSeriesFile reads a series from a file path.
func ReadSeriesFile(path string) (ts.Series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSeries(f)
}

// WriteSeries writes one value per line.
func WriteSeries(w io.Writer, s ts.Series) error {
	bw := bufio.NewWriter(w)
	for _, v := range s {
		if _, err := fmt.Fprintf(bw, "%g\n", v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// parseLine splits one text line into float values.
func parseLine(line string) ([]float64, error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return nil, nil
	}
	fields := strings.FieldsFunc(line, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t' || r == ';'
	})
	out := make([]float64, 0, len(fields))
	for _, tok := range fields {
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("tsio: bad value %q: %w", tok, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// LabeledSeries is one dataset row: a class label and its values.
type LabeledSeries struct {
	Class  int
	Values ts.Series
}

// WriteDataset writes rows in the UCR text convention: class label first,
// then the values, comma separated, one series per line.
func WriteDataset(w io.Writer, rows []LabeledSeries) error {
	bw := bufio.NewWriter(w)
	for _, row := range rows {
		if _, err := fmt.Fprintf(bw, "%d", row.Class); err != nil {
			return err
		}
		for _, v := range row.Values {
			if _, err := fmt.Fprintf(bw, ",%g", v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadDataset reads rows written by WriteDataset (or real UCR text files):
// the first field of each line is the integer class, the rest the values.
func ReadDataset(r io.Reader) ([]LabeledSeries, error) {
	var out []LabeledSeries
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<22), 1<<22)
	for sc.Scan() {
		vals, err := parseLine(sc.Text())
		if err != nil {
			return nil, err
		}
		if len(vals) == 0 {
			continue
		}
		if len(vals) < 2 {
			return nil, fmt.Errorf("tsio: dataset row needs a label and at least one value")
		}
		out = append(out, LabeledSeries{Class: int(vals[0]), Values: vals[1:]})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, ErrEmptyInput
	}
	return out, nil
}

// envelope is the JSON form of a persisted representation.
type envelope struct {
	Kind     string    `json:"kind"`
	N        int       `json:"n"`
	A        []float64 `json:"a,omitempty"`        // linear slopes
	B        []float64 `json:"b,omitempty"`        // linear intercepts
	R        []int     `json:"r,omitempty"`        // right endpoints
	V        []float64 `json:"v,omitempty"`        // constant / frame values
	Coefs    []float64 `json:"coefs,omitempty"`    // Chebyshev coefficients
	Symbols  []int     `json:"symbols,omitempty"`  // SAX word
	Alphabet int       `json:"alphabet,omitempty"` // SAX cardinality
	Mu       float64   `json:"mu,omitempty"`
	Sigma    float64   `json:"sigma,omitempty"`
}

// Representation envelope kinds.
const (
	kindLinear   = "linear"
	kindConstant = "constant"
	kindPAA      = "paa"
	kindCheby    = "cheby"
	kindSAX      = "sax"
)

// EncodeRepresentation writes a representation as a one-line JSON envelope.
func EncodeRepresentation(w io.Writer, rep repr.Representation) error {
	var env envelope
	switch v := rep.(type) {
	case repr.Linear:
		if err := v.Validate(); err != nil { // DecodeRepresentation refuses it too
			return fmt.Errorf("tsio: %w", err)
		}
		env.Kind, env.N = kindLinear, v.N
		for _, s := range v.Segs {
			env.A = append(env.A, s.Line.A)
			env.B = append(env.B, s.Line.B)
			env.R = append(env.R, s.R)
		}
	case repr.Constant:
		env.Kind, env.N = kindConstant, v.N
		for _, s := range v.Segs {
			env.V = append(env.V, s.V)
			env.R = append(env.R, s.R)
		}
	case repr.PAA:
		env.Kind, env.N = kindPAA, v.N
		env.V = v.Values
	case repr.Cheby:
		env.Kind, env.N = kindCheby, v.N
		env.Coefs = v.Coefs
	case repr.Word:
		env.Kind, env.N = kindSAX, v.N
		env.Symbols, env.Alphabet = v.Symbols, v.Alphabet
		env.Mu, env.Sigma = v.Mu, v.Sigma
	default:
		return fmt.Errorf("tsio: cannot encode representation %T", rep)
	}
	return json.NewEncoder(w).Encode(env)
}

// DecodeRepresentation reads one JSON envelope back into a representation.
func DecodeRepresentation(r io.Reader) (repr.Representation, error) {
	var env envelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, err
	}
	switch env.Kind {
	case kindLinear:
		if len(env.A) != len(env.B) || len(env.A) != len(env.R) || len(env.A) == 0 {
			return nil, fmt.Errorf("tsio: malformed linear envelope")
		}
		out := repr.Linear{N: env.N, Segs: make([]repr.LinearSeg, len(env.A))}
		for i := range env.A {
			out.Segs[i] = repr.LinearSeg{Line: segment.Line{A: env.A[i], B: env.B[i]}, R: env.R[i]}
		}
		if err := out.Validate(); err != nil {
			return nil, fmt.Errorf("tsio: %w", err)
		}
		return out, nil
	case kindConstant:
		if len(env.V) != len(env.R) || len(env.V) == 0 {
			return nil, fmt.Errorf("tsio: malformed constant envelope")
		}
		out := repr.Constant{N: env.N, Segs: make([]repr.ConstSeg, len(env.V))}
		for i := range env.V {
			out.Segs[i] = repr.ConstSeg{V: env.V[i], R: env.R[i]}
		}
		return out, nil
	case kindPAA:
		if len(env.V) == 0 {
			return nil, fmt.Errorf("tsio: malformed paa envelope")
		}
		return repr.PAA{N: env.N, Values: env.V}, nil
	case kindCheby:
		if len(env.Coefs) == 0 {
			return nil, fmt.Errorf("tsio: malformed cheby envelope")
		}
		return repr.Cheby{N: env.N, Coefs: env.Coefs}, nil
	case kindSAX:
		if len(env.Symbols) == 0 || env.Alphabet < 2 {
			return nil, fmt.Errorf("tsio: malformed sax envelope")
		}
		return repr.Word{N: env.N, Symbols: env.Symbols, Alphabet: env.Alphabet,
			Mu: env.Mu, Sigma: env.Sigma}, nil
	default:
		return nil, fmt.Errorf("tsio: unknown representation kind %q", env.Kind)
	}
}
