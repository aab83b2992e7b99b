// Package ts provides the time-series substrate used by every other package
// in this repository: the Series type, Euclidean distance, z-normalisation,
// and prefix-sum machinery that makes least-squares line fits over arbitrary
// windows an O(1) operation.
//
// Throughout the repository a time series C = {c_0, ..., c_{n-1}} is a plain
// []float64; positions ("time") are the integer indices 0..n-1, matching the
// paper's Definition 3.1.
package ts

import (
	"errors"
	"fmt"
	"math"
)

// ErrEmpty is returned by operations that require a non-empty series.
var ErrEmpty = errors.New("ts: empty series")

// ErrLengthMismatch is returned by pairwise operations on series of
// different lengths.
var ErrLengthMismatch = errors.New("ts: length mismatch")

// Series is a univariate, equally spaced time series.
type Series []float64

// Clone returns a deep copy of s.
func (s Series) Clone() Series {
	out := make(Series, len(s))
	copy(out, s)
	return out
}

// Validate reports whether the series is usable: non-empty and free of NaN
// and infinity values.
func (s Series) Validate() error {
	if len(s) == 0 {
		return ErrEmpty
	}
	for i, v := range s {
		if math.IsNaN(v) {
			return fmt.Errorf("ts: NaN at index %d", i)
		}
		if math.IsInf(v, 0) {
			return fmt.Errorf("ts: infinity at index %d", i)
		}
	}
	return nil
}

// EuclideanSq returns the squared Euclidean distance between a and b.
// It panics if the lengths differ; use Euclidean for the checked variant.
func EuclideanSq(a, b Series) float64 {
	if len(a) != len(b) {
		panic(ErrLengthMismatch)
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}

// abandonStride is how many terms a RefineGroup (and EuclideanSqAbandon, its
// one-candidate test oracle) adds between two looks at the limit: often
// enough that a hopeless candidate stops within a few cache lines, rarely
// enough that the compare stays off the add chain.
const abandonStride = 16

// Euclidean returns the Euclidean distance between a and b, or an error if
// the lengths differ.
func Euclidean(a, b Series) (float64, error) {
	if len(a) != len(b) {
		return 0, ErrLengthMismatch
	}
	return math.Sqrt(EuclideanSq(a, b)), nil
}

// MaxDeviation returns the maximum absolute pointwise difference between the
// original series c and a reconstruction r (paper Definition 3.4 applied to
// whole series). It panics on length mismatch.
func MaxDeviation(c, r Series) float64 {
	if len(c) != len(r) {
		panic(ErrLengthMismatch)
	}
	var m float64
	for i := range c {
		if d := math.Abs(c[i] - r[i]); d > m {
			m = d
		}
	}
	return m
}

// Mean returns the arithmetic mean of s. It returns 0 for an empty series.
func (s Series) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// Std returns the population standard deviation of s.
func (s Series) Std() float64 {
	if len(s) == 0 {
		return 0
	}
	mu := s.Mean()
	var sum float64
	for _, v := range s {
		d := v - mu
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(s)))
}

// MinMax returns the minimum and maximum values of s. Both are 0 for an
// empty series.
func (s Series) MinMax() (lo, hi float64) {
	if len(s) == 0 {
		return 0, 0
	}
	lo, hi = s[0], s[0]
	for _, v := range s[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// ZNormalize returns a copy of s with zero mean and unit standard deviation.
// A (near-)constant series is returned as all zeros rather than dividing by
// a vanishing deviation.
func (s Series) ZNormalize() Series {
	out := make(Series, len(s))
	if len(s) == 0 {
		return out
	}
	mu := s.Mean()
	sd := s.Std()
	if sd < 1e-12 {
		return out // all zeros
	}
	for i, v := range s {
		out[i] = (v - mu) / sd
	}
	return out
}
