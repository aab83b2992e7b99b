// Package subseq implements subsequence similarity search over one long
// sequence — the original GEMINI use case (Faloutsos et al., the framework
// the paper's indexing builds on): the sliding windows of the long sequence
// are indexed on the flat tier (index.Flat), whose envelope filter is a
// proven lower bound, so pattern queries return exactly a scan's answers.
package subseq

import (
	"errors"
	"fmt"

	"sapla/internal/dist"
	"sapla/internal/index"
	"sapla/internal/ts"
)

// ErrQueryLength is returned when a query's length differs from the window
// length the index was built with.
var ErrQueryLength = errors.New("subseq: query length does not match window length")

// Match is one matching window of the long sequence.
type Match struct {
	Offset int     // window start in the long sequence
	Dist   float64 // exact Euclidean distance to the query
}

// Index is a subsequence-search index over one long sequence.
type Index struct {
	w      int
	stride int
	znorm  bool
	idx    *index.Flat
}

// Option configures the index.
type Option func(*config)

type config struct {
	stride int
	znorm  bool
}

// WithStride indexes every stride-th window instead of every window.
// Stride > 1 trades recall for build cost: a true match can be missed by up
// to stride−1 positions (its overlapping neighbour window is still found).
func WithStride(s int) Option {
	return func(c *config) { c.stride = s }
}

// WithZNormalize z-normalises every window and every query before matching —
// the UCR-suite convention for amplitude/offset-invariant subsequence
// search. Reported distances are z-normalised distances.
func WithZNormalize() Option {
	return func(c *config) { c.znorm = true }
}

// New builds a subsequence index over long with window length w. A window's
// entry aliases long; a z-normalised window keeps its own copy.
func New(long ts.Series, w int, opts ...Option) (*Index, error) {
	if err := long.Validate(); err != nil {
		return nil, err
	}
	if w < 2 || w > len(long) {
		return nil, fmt.Errorf("subseq: window length %d out of range for sequence of %d", w, len(long))
	}
	cfg := config{stride: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.stride < 1 {
		cfg.stride = 1
	}
	ix := &Index{w: w, stride: cfg.stride, znorm: cfg.znorm, idx: index.NewFlat()}
	for off := 0; off+w <= len(long); off += cfg.stride {
		win := long[off : off+w]
		if cfg.znorm {
			win = win.ZNormalize()
		}
		if err := ix.idx.Insert(index.NewEntry(off, win, nil)); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// Windows returns how many windows are indexed.
func (ix *Index) Windows() int { return ix.idx.Len() }

// prepare validates a query and z-normalises it when the index does.
func (ix *Index) prepare(query ts.Series) (dist.Query, error) {
	if len(query) != ix.w {
		return dist.Query{}, ErrQueryLength
	}
	if err := query.Validate(); err != nil {
		return dist.Query{}, err
	}
	if ix.znorm {
		query = query.ZNormalize()
	}
	return dist.Query{Raw: query}, nil
}

// Match returns the k nearest indexed windows, including overlapping ones.
func (ix *Index) Match(query ts.Series, k int) ([]Match, index.SearchStats, error) {
	q, err := ix.prepare(query)
	if err != nil {
		return nil, index.SearchStats{}, err
	}
	res, stats, err := ix.idx.KNN(q, k)
	if err != nil {
		return nil, stats, err
	}
	return toMatches(res), stats, nil
}

// TopK returns the k best non-overlapping matches: of any set of windows
// within one window length of each other, only the best survives (the
// standard trivial-match suppression).
func (ix *Index) TopK(query ts.Series, k int) ([]Match, index.SearchStats, error) {
	q, err := ix.prepare(query)
	if err != nil {
		return nil, index.SearchStats{}, err
	}
	// Over-fetch: each kept match can suppress up to 2(w/stride) neighbours.
	fetch := k * (2*ix.w/ix.stride + 1)
	if fetch > ix.idx.Len() {
		fetch = ix.idx.Len()
	}
	res, stats, err := ix.idx.KNN(q, fetch)
	if err != nil {
		return nil, stats, err
	}
	kept := suppress(toMatches(res), ix.w, k)
	return kept, stats, nil
}

// RangeMatch returns every indexed window within radius, overlaps included.
func (ix *Index) RangeMatch(query ts.Series, radius float64) ([]Match, index.SearchStats, error) {
	q, err := ix.prepare(query)
	if err != nil {
		return nil, index.SearchStats{}, err
	}
	res, stats, err := ix.idx.Range(q, radius)
	if err != nil {
		return nil, stats, err
	}
	return toMatches(res), stats, nil
}

// toMatches converts index results (already sorted by distance).
func toMatches(res []index.Result) []Match {
	out := make([]Match, len(res))
	for i, r := range res {
		out[i] = Match{Offset: r.Entry.ID, Dist: r.Dist}
	}
	return out
}

// suppress keeps at most k of ms, which is sorted by distance, dropping any
// match within w positions of an already-kept better one.
func suppress(ms []Match, w, k int) []Match {
	var kept []Match
	for _, m := range ms {
		ok := true
		for _, km := range kept {
			if abs(m.Offset-km.Offset) < w {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, m)
			if len(kept) == k {
				break
			}
		}
	}
	return kept
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
