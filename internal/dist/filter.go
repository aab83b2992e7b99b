package dist

import (
	"fmt"

	"sapla/internal/repr"
	"sapla/internal/ts"
)

// Query bundles a raw query series with its prefix sums and its reduced form
// under the method being evaluated — everything any filtering measure needs.
type Query struct {
	Raw    ts.Series
	Prefix *ts.Prefix
	Rep    repr.Representation
	Flat   *FlatLinear // flat PAR form of Rep; nil when not linear-convertible
}

// NewQuery prepares a query for filtering.
func NewQuery(raw ts.Series, rep repr.Representation) Query {
	return Query{Raw: raw, Prefix: ts.NewPrefix(raw), Rep: rep, Flat: FlattenLinear(rep)}
}

// NewFilterQuery is NewQuery without the prefix sums — 3·(n+1) floats per
// query that only Adaptive's MeasureLB reads. Every FilterFunc and every
// index search works from Raw, Rep and Flat alone, so a caller that only
// searches (the server) builds its queries here.
func NewFilterQuery(raw ts.Series, rep repr.Representation) Query {
	return Query{Raw: raw, Rep: rep, Flat: FlattenLinear(rep)}
}

// FilterFunc is a representation-space distance used to filter k-NN
// candidates before exact refinement (the GEMINI framework).
type FilterFunc func(q Query, c repr.Representation) (float64, error)

// Filter returns the method's filtering measure, per the paper's Section 6:
// Dist_PAR for the adaptive-length methods (SAPLA, APLA, APCA), the methods'
// own lower-bounding measures otherwise.
func Filter(method string) (FilterFunc, error) {
	switch method {
	case "SAPLA", "APLA", "APCA":
		return func(q Query, c repr.Representation) (float64, error) {
			ql, ok1 := AsLinear(q.Rep)
			cl, ok2 := AsLinear(c)
			if !ok1 || !ok2 {
				return 0, ErrIncompatible
			}
			return PAR(ql, cl)
		}, nil
	case "PLA":
		return func(q Query, c repr.Representation) (float64, error) {
			ql, ok1 := q.Rep.(repr.Linear)
			cl, ok2 := c.(repr.Linear)
			if !ok1 || !ok2 {
				return 0, ErrIncompatible
			}
			return PLA(ql, cl)
		}, nil
	case "PAA", "PAALM":
		return func(q Query, c repr.Representation) (float64, error) {
			qp, ok1 := q.Rep.(repr.PAA)
			cp, ok2 := c.(repr.PAA)
			if !ok1 || !ok2 {
				return 0, ErrIncompatible
			}
			return PAA(qp, cp)
		}, nil
	case "CHEBY":
		return func(q Query, c repr.Representation) (float64, error) {
			qc, ok1 := q.Rep.(repr.Cheby)
			cc, ok2 := c.(repr.Cheby)
			if !ok1 || !ok2 {
				return 0, ErrIncompatible
			}
			return Cheby(qc, cc)
		}, nil
	case "SAX":
		return func(q Query, c repr.Representation) (float64, error) {
			qw, ok1 := q.Rep.(repr.Word)
			cw, ok2 := c.(repr.Word)
			if !ok1 || !ok2 {
				return 0, ErrIncompatible
			}
			return SAXMinDist(qw, cw)
		}, nil
	default:
		return nil, fmt.Errorf("dist: no filtering measure for method %q", method)
	}
}

// RepDistFunc is a representation-to-representation distance.
type RepDistFunc func(a, b repr.Representation) (float64, error)

// RepDist returns the method's representation-space distance for use where
// both sides are stored representations (DBCH hull construction, node
// splitting, branch picking). Every filtering measure in this package only
// consults the query's reduced form, so this reuses Filter directly.
func RepDist(method string) (RepDistFunc, error) {
	f, err := Filter(method)
	if err != nil {
		return nil, err
	}
	return func(a, b repr.Representation) (float64, error) {
		return f(Query{Rep: a}, b)
	}, nil
}

// AdaptiveMeasure names one of the three measures compared in Figure 10 for
// adaptive-length representations.
type AdaptiveMeasure string

// The three measures of Section 5.1.
const (
	MeasurePAR AdaptiveMeasure = "PAR" // lower bound, tight (this paper)
	MeasureLB  AdaptiveMeasure = "LB"  // lower bound, loose (APCA)
	MeasureAE  AdaptiveMeasure = "AE"  // tight, no lower bound (APCA)
)

// Adaptive evaluates the named measure between a query and an adaptive
// representation.
func Adaptive(m AdaptiveMeasure, q Query, c repr.Representation) (float64, error) {
	switch m {
	case MeasurePAR:
		ql, ok1 := AsLinear(q.Rep)
		cl, ok2 := AsLinear(c)
		if !ok1 || !ok2 {
			return 0, ErrIncompatible
		}
		return PAR(ql, cl)
	case MeasureLB:
		if cc, ok := c.(repr.Constant); ok {
			return LBConst(q.Prefix, cc)
		}
		cl, ok := AsLinear(c)
		if !ok {
			return 0, ErrIncompatible
		}
		return LB(q.Prefix, cl)
	case MeasureAE:
		return AE(q.Raw, c)
	default:
		return 0, fmt.Errorf("dist: unknown adaptive measure %q", m)
	}
}
