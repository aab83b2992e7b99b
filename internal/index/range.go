package index

import (
	"math"
	"slices"

	"sapla/internal/dist"
	"sapla/internal/ts"
)

// rangeSearch answers a range query as idx's own k-NN search with no k and a
// bound that never moves from radius (pooledKNN), which every searching tier
// prunes and abandons against. A radius that is not >= 0 (negative or NaN)
// has no answer.
func rangeSearch(idx Index, q dist.Query, radius float64) ([]Result, SearchStats, error) {
	return pooledKNN(idx, q, math.MaxInt, radius)
}

// sortResults orders answers by the canonical (distance, entry ID) key
// (before). Distance alone would leave exact ties in traversal order, which
// differs between tree shapes and shard counts; the ID tie-break makes the
// answer a pure function of the stored entries.
func sortResults(out []Result) {
	slices.SortFunc(out, func(a, b Result) int {
		if before(a, b) {
			return -1
		}
		if before(b, a) {
			return 1
		}
		return 0
	})
}

// before reports whether a precedes b in the canonical (distance, ID) order,
// the one order every answer set is selected and sorted under.
func before(a, b Result) bool {
	if a.Dist != b.Dist { //sapla:floateq exact tie: the ID tie-break must fire only on bit-equal distances
		return a.Dist < b.Dist
	}
	return a.Entry.ID < b.Entry.ID
}

// Range implements Index: the GEMINI range query — prune nodes whose
// bound exceeds the radius, filter leaf entries with the tree's
// representation-space distance, and verify survivors exactly. Its stack,
// query coefficients and answer set live in a pooled workspace, so a query
// allocates only the caller's copy of the answer.
func (t *tree[C]) Range(q dist.Query, radius float64) ([]Result, SearchStats, error) {
	var stats SearchStats
	if t.root == nilNode || radius < 0 {
		return nil, stats, nil
	}
	ws := wsPool.Get().(*Workspace)
	defer wsPool.Put(ws)
	ws.qvec = appendCoeffs(ws.qvec[:0], q.Rep)
	out := ws.best[:0]
	stack := append(ws.stack[:0], t.root)
	defer func() { ws.stack, ws.best = stack[:0], out[:0] }()
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		stats.NodesVisited++
		if !t.ar.isLeaf[nd] {
			for _, c := range t.ar.slotsOf(nd) {
				if t.cov.nodeBound(q, ws.qvec, c) <= radius {
					stack = append(stack, c)
				}
			}
			continue
		}
		for _, eid := range t.ar.slotsOf(nd) {
			e := t.ents[eid]
			stats.Filtered++
			fd, err := t.cov.filterEntry(q, e)
			if err != nil {
				return nil, stats, err
			}
			if fd > radius {
				continue
			}
			stats.Measured++
			exact := math.Sqrt(ts.EuclideanSq(q.Raw, e.Raw))
			if exact <= radius {
				out = append(out, Result{Entry: e, Dist: exact})
			}
		}
	}
	if len(out) == 0 {
		return nil, stats, nil
	}
	sortResults(out)
	return slices.Clone(out), stats, nil
}

// Range implements Index for the linear scan (exact).
func (s *LinearScan) Range(q dist.Query, radius float64) ([]Result, SearchStats, error) {
	stats := SearchStats{Measured: len(s.entries)}
	var out []Result
	for _, e := range s.entries {
		d := math.Sqrt(ts.EuclideanSq(q.Raw, e.Raw))
		if d <= radius {
			out = append(out, Result{Entry: e, Dist: d})
		}
	}
	sortResults(out)
	return out, stats, nil
}
