package index

import (
	"fmt"
	"math"

	"sapla/internal/dist"
	"sapla/internal/repr"
)

// nodeDistFunc estimates, from below, the method's filter distance between
// the query, whose coefficient vector is qv, and any entry contained in the
// rectangle. For the equal-length
// methods the estimate is a true lower bound of the filter distance; for the
// adaptive methods a conservative coefficient-space bound is the best an MBR
// admits — this is precisely the APCA-MBR weakness (Figure 11) the
// DBCH-tree exists to fix.
type nodeDistFunc func(q dist.Query, qv []float64, r Rect) float64

// nodeDistFor builds the node-level distance for a method, given the series
// length n and coefficient budget m.
func nodeDistFor(method string, n, m int) (nodeDistFunc, error) {
	switch method {
	case "PAA", "PAALM":
		w := make([]float64, m)
		for i := range w {
			lo, hi := repr.FrameBounds(n, m, i)
			w[i] = float64(hi - lo)
		}
		return weightedMinDist(w), nil
	case "CHEBY":
		mm := m
		if mm > n {
			mm = n
		}
		w := make([]float64, mm)
		w[0] = float64(n)
		for i := 1; i < mm; i++ {
			w[i] = float64(n) / 2
		}
		return weightedMinDist(w), nil
	case "PLA":
		nSeg := m / 2
		w := make([]float64, 0, 3*nSeg)
		for i := 0; i < nSeg; i++ {
			lo, hi := repr.FrameBounds(n, nSeg, i)
			lam := plaLambdaMin(hi - lo)
			w = append(w, lam, lam, 0) // a, b, r dims
		}
		return weightedMinDist(w), nil
	case "SAPLA", "APLA":
		nSeg := m / 3
		lam := plaLambdaMin(2) // minimum segment length for adaptive linear
		w := make([]float64, 0, 3*nSeg)
		for i := 0; i < nSeg; i++ {
			w = append(w, lam, lam, 0) // a, b, r dims
		}
		return weightedMinDist(w), nil
	case "APCA":
		nSeg := m / 2
		w := make([]float64, 0, 2*nSeg)
		for i := 0; i < nSeg; i++ {
			w = append(w, 1, 0) // v (min segment length 1), r dims
		}
		return weightedMinDist(w), nil
	case "SAX":
		return saxNodeDist(n), nil
	default:
		return nil, fmt.Errorf("index: no node distance for method %q", method)
	}
}

// weightedMinDist returns sqrt(Σ w_d · gap_d²) between the query's
// coefficient vector and the rectangle.
func weightedMinDist(w []float64) nodeDistFunc {
	return func(_ dist.Query, v []float64, r Rect) float64 {
		var sum float64
		for d := range v {
			if d >= len(w) || w[d] == 0 { //sapla:floateq weights are constructed with literal 0 for dimensions that carry no bound
				continue
			}
			g := gap(v[d], r.Lo[d], r.Hi[d])
			sum += w[d] * g * g
		}
		return math.Sqrt(sum)
	}
}

// plaLambdaMin is the smallest eigenvalue of the Dist_S quadratic form for
// a segment of length l: Dist_S = wa·da² + 2·c·da·db + wb·db² with
// wa = l(l−1)(2l−1)/6, wb = l, c = l(l−1)/2. Weighting both coefficient
// dimensions by λmin lower-bounds Dist_S.
func plaLambdaMin(l int) float64 {
	fl := float64(l)
	wa := fl * (fl - 1) * (2*fl - 1) / 6
	wb := fl
	c := fl * (fl - 1) / 2
	tr := wa + wb
	disc := math.Sqrt((wa-wb)*(wa-wb) + 4*c*c)
	lam := (tr - disc) / 2
	if lam < 0 {
		lam = 0
	}
	return lam
}

// saxNodeDist evaluates the exact per-dimension minimum of the SAX MINDIST
// cell distance over the rectangle's symbol ranges.
func saxNodeDist(n int) nodeDistFunc {
	return func(q dist.Query, _ []float64, r Rect) float64 {
		w, ok := q.Rep.(repr.Word)
		if !ok {
			return 0
		}
		bp := repr.Breakpoints(w.Alphabet)
		frames := len(w.Symbols)
		var sum float64
		for d, qs := range w.Symbols {
			// Nearest stored symbol within the rectangle's range.
			lo := int(math.Ceil(r.Lo[d]))
			hi := int(math.Floor(r.Hi[d]))
			if hi < lo {
				continue
			}
			cs := qs
			if cs < lo {
				cs = lo
			}
			if cs > hi {
				cs = hi
			}
			cd := saxCell(bp, qs, cs)
			sum += cd * cd
		}
		scale := w.Sigma
		if scale <= 0 {
			scale = 1
		}
		return math.Sqrt(float64(n)/float64(frames)*sum) * scale
	}
}

// saxCell mirrors the SAX lookup-table distance.
func saxCell(bp []float64, a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	if b-a <= 1 {
		return 0
	}
	return bp[b-1] - bp[a]
}

// appendCoeffs appends rep's coefficient vector (Coeffs' layout) to dst
// without the copy Coeffs makes, so a tree search computes its query's
// vector once, into its workspace, for every method's representation. Other
// types fall back to Coeffs; a nil one has no coefficients.
func appendCoeffs(dst []float64, rep repr.Representation) []float64 {
	switch r := rep.(type) {
	case nil:
		return dst
	case repr.Linear:
		for _, s := range r.Segs {
			dst = append(dst, s.Line.A, s.Line.B, float64(s.R))
		}
		return dst
	case repr.Constant:
		for _, s := range r.Segs {
			dst = append(dst, s.V, float64(s.R))
		}
		return dst
	case repr.PAA:
		return append(dst, r.Values...)
	case repr.Cheby:
		return append(dst, r.Coefs...)
	case repr.Word:
		for _, sym := range r.Symbols {
			dst = append(dst, float64(sym))
		}
		return dst
	}
	return append(dst, rep.Coeffs()...)
}
