package dist

import (
	"math"

	"sapla/internal/repr"
)

// FlatLinear is a structure-of-arrays form of repr.Linear specialised for the
// Dist_PAR merge loop. Per segment i it stores the slope A[i], the right
// endpoint R[i], and the global-time intercept C[i] = B[i] − A[i]·start(i),
// so the line restricted to a sub-segment beginning at global position lo has
// local intercept A[i]·lo + C[i] with no per-sub-segment Shift or Start
// bookkeeping. Flattening is done once per stored entry and once per query.
type FlatLinear struct {
	N int       // original series length
	A []float64 // slope per segment
	C []float64 // global-time intercept per segment: B − A·start
	R []int32   // inclusive right endpoint per segment
}

// FlattenLinear converts a representation to its flat PAR form, or nil when
// the representation is not linear-convertible (or empty). Callers treat a
// nil FlatLinear as "use the generic measure".
func FlattenLinear(r repr.Representation) *FlatLinear {
	if r == nil {
		return nil
	}
	l, ok := AsLinear(r)
	if !ok || len(l.Segs) == 0 || l.N == 0 {
		return nil
	}
	f := &FlatLinear{
		N: l.N,
		A: make([]float64, len(l.Segs)),
		C: make([]float64, len(l.Segs)),
		R: make([]int32, len(l.Segs)),
	}
	start := 0
	for i, s := range l.Segs {
		f.A[i] = s.Line.A
		f.C[i] = s.Line.B - s.Line.A*float64(start)
		f.R[i] = int32(s.R)
		start = s.R + 1
	}
	return f
}

// PARFlat is Dist_PAR (Definition 5.1) over two flattened representations:
// the merge loop over the union of right endpoints with the closed-form
// Dist_S (Eq. 12) per aligned sub-segment, 4-way unrolled onto independent
// accumulators so the floating-point add chain does not serialise the loop.
// It returns +Inf for incompatible inputs (different lengths, empty or
// malformed segmentations) — callers needing a typed error use PAR.
//
// The aligned sub-segment starting at global lo under segments iq, ic has
// slope delta da = A_q[iq] − A_c[ic] and intercept delta
// db = da·lo + (C_q[iq] − C_c[ic]), which is Dist_S's (qb − cb) after both
// lines are shifted to local time — identical algebra to PAR, reassociated.
func PARFlat(q, c *FlatLinear) float64 {
	if q == nil || c == nil || q.N != c.N || q.N == 0 ||
		len(q.R) == 0 || len(c.R) == 0 ||
		q.R[len(q.R)-1] != int32(q.N-1) || c.R[len(c.R)-1] != int32(c.N-1) {
		return math.Inf(1)
	}
	n := int32(q.N)
	var s0, s1, s2, s3 float64
	iq, ic := 0, 0
	lo := int32(0)
	for lo < n {
		// Body 1 → s0.
		rq, rc := q.R[iq], c.R[ic]
		hi := rq
		if rc < hi {
			hi = rc
		}
		fl := float64(hi - lo + 1)
		da := q.A[iq] - c.A[ic]
		db := da*float64(lo) + (q.C[iq] - c.C[ic])
		s0 += fl*(fl-1)*(2*fl-1)/6*da*da + fl*(fl-1)*da*db + fl*db*db
		if rq == hi {
			iq++
		}
		if rc == hi {
			ic++
		}
		lo = hi + 1
		if lo >= n {
			break
		}

		// Body 2 → s1.
		rq, rc = q.R[iq], c.R[ic]
		hi = rq
		if rc < hi {
			hi = rc
		}
		fl = float64(hi - lo + 1)
		da = q.A[iq] - c.A[ic]
		db = da*float64(lo) + (q.C[iq] - c.C[ic])
		s1 += fl*(fl-1)*(2*fl-1)/6*da*da + fl*(fl-1)*da*db + fl*db*db
		if rq == hi {
			iq++
		}
		if rc == hi {
			ic++
		}
		lo = hi + 1
		if lo >= n {
			break
		}

		// Body 3 → s2.
		rq, rc = q.R[iq], c.R[ic]
		hi = rq
		if rc < hi {
			hi = rc
		}
		fl = float64(hi - lo + 1)
		da = q.A[iq] - c.A[ic]
		db = da*float64(lo) + (q.C[iq] - c.C[ic])
		s2 += fl*(fl-1)*(2*fl-1)/6*da*da + fl*(fl-1)*da*db + fl*db*db
		if rq == hi {
			iq++
		}
		if rc == hi {
			ic++
		}
		lo = hi + 1
		if lo >= n {
			break
		}

		// Body 4 → s3.
		rq, rc = q.R[iq], c.R[ic]
		hi = rq
		if rc < hi {
			hi = rc
		}
		fl = float64(hi - lo + 1)
		da = q.A[iq] - c.A[ic]
		db = da*float64(lo) + (q.C[iq] - c.C[ic])
		s3 += fl*(fl-1)*(2*fl-1)/6*da*da + fl*(fl-1)*da*db + fl*db*db
		if rq == hi {
			iq++
		}
		if rc == hi {
			ic++
		}
		lo = hi + 1
	}
	return math.Sqrt((s0 + s1) + (s2 + s3))
}
