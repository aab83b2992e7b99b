// Package subseq implements subsequence similarity search over one long
// sequence — the original GEMINI use case (Faloutsos et al., the framework
// the paper's indexing builds on): sliding windows of the long sequence are
// reduced and indexed, and pattern queries run through the lower-bounding
// k-NN/range machinery with exact verification.
package subseq

import (
	"errors"
	"fmt"
	"sort"

	"sapla/internal/dist"
	"sapla/internal/index"
	"sapla/internal/reduce"
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
	long   ts.Series
	w      int
	stride int
	m      int
	znorm  bool
	method reduce.Method
	idx    index.Index
}

// Option configures the index.
type Option func(*config)

type config struct {
	stride int
	useR   bool
	znorm  bool
}

// WithStride indexes every stride-th window instead of every window.
// Stride > 1 trades recall for build cost: a true match can be missed by up
// to stride−1 positions (its overlapping neighbour window is still found).
func WithStride(s int) Option {
	return func(c *config) { c.stride = s }
}

// WithRTree uses the R-tree instead of the default DBCH-tree.
func WithRTree() Option {
	return func(c *config) { c.useR = true }
}

// WithZNormalize z-normalises every window and every query before reduction
// and matching — the UCR-suite convention for amplitude/offset-invariant
// subsequence search. Reported distances are z-normalised distances.
func WithZNormalize() Option {
	return func(c *config) { c.znorm = true }
}

// New builds a subsequence index over long with window length w, reducing
// each window to m coefficients under method.
func New(long ts.Series, w, m int, method reduce.Method, opts ...Option) (*Index, error) {
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
	var idx index.Index
	var err error
	if cfg.useR {
		idx, err = index.NewRTree(method.Name(), w, m, 2, 5)
	} else {
		// Overlapping windows are near-duplicates of each other — exactly
		// the regime where the paper's Section 5.3 node rule over-prunes —
		// so subsequence search uses the triangle-safe DBCH bound.
		var db *index.DBCH
		db, err = index.NewDBCH(method.Name(), 2, 5)
		if db != nil {
			db.SafeBound = true
			idx = db
		}
	}
	if err != nil {
		return nil, err
	}
	ix := &Index{long: long, w: w, stride: cfg.stride, m: m, znorm: cfg.znorm, method: method, idx: idx}
	for off := 0; off+w <= len(long); off += cfg.stride {
		win := long[off : off+w]
		if cfg.znorm {
			win = win.ZNormalize()
		}
		rep, err := method.Reduce(win, m)
		if err != nil {
			return nil, err
		}
		if err := idx.Insert(index.NewEntry(off, win, rep)); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// Windows returns how many windows are indexed.
func (ix *Index) Windows() int { return ix.idx.Len() }

// prepare reduces a query and validates its length.
func (ix *Index) prepare(query ts.Series) (dist.Query, error) {
	if len(query) != ix.w {
		return dist.Query{}, ErrQueryLength
	}
	if ix.znorm {
		query = query.ZNormalize()
	}
	rep, err := ix.method.Reduce(query, ix.m)
	if err != nil {
		return dist.Query{}, err
	}
	return dist.NewQuery(query, rep), nil
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
// No-false-dismissal holds only for methods whose filter distance is a
// guaranteed lower bound (PAA, PLA); with adaptive methods (SAPLA, APLA,
// APCA) Dist_PAR can exceed the Euclidean distance when the representation
// error dominates it, so matches whose distance is far below the reduction
// error scale may be missed — prefer Match/TopK there, which self-correct
// through exact refinement.
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

// suppress keeps at most k matches, dropping any match within w positions
// of an already-kept better one.
func suppress(ms []Match, w, k int) []Match {
	sort.Slice(ms, func(i, j int) bool { return ms[i].Dist < ms[j].Dist })
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
