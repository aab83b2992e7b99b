package index

import "errors"

// ErrNotEmpty is returned when bulk-loading into a non-empty tree.
var ErrNotEmpty = errors.New("index: bulk load requires an empty tree")

// BulkLoad packs entries into the tree bottom-up: the cover orders them (the
// R-tree by two-level Sort-Tile-Recursive slabs, the DBCH-tree by distance to
// a pivot), consecutive runs fill whole leaves, and consecutive nodes fill
// their parents, with the covers rebuilt by the routines the incremental
// path uses. This skips every split and branch pick, so it builds faster and
// packs tighter than one-by-one insertion (an ingest-time ablation for
// Figure 14a), and rebuilding an index from a recovered snapshot costs
// O(n log n) distances instead of insertion's repeated farthest-pair scans.
func (t *tree[C]) BulkLoad(entries []*Entry) error {
	if t.root != nilNode {
		return ErrNotEmpty
	}
	if len(entries) == 0 {
		return nil
	}
	ids := make([]int32, len(entries))
	for i, e := range entries {
		ids[i] = t.addEntry(e)
	}
	t.bulkLoad(ids)
	t.size = len(entries)
	return nil
}

// bulkLoad builds the tree over already-registered entry ids. The caller
// guarantees the node arena holds no live nodes (fresh tree, or just reset
// by Compact). Given the same entry-id ordering it is fully deterministic,
// which is what makes a compacted tree bit-identical to a freshly
// bulk-loaded one.
func (t *tree[C]) bulkLoad(ids []int32) {
	runs := t.cov.bulkOrder(ids)
	if runs == nil {
		runs = []int{len(ids)}
	}
	t.ar.reserve(nodesForBulk(len(ids), t.maxFill))
	level := make([]int32, 0, (len(ids)+t.maxFill-1)/t.maxFill+len(runs))
	lo := 0
	for _, end := range runs {
		for ; lo < end; lo += t.maxFill {
			leaf := t.ar.alloc(true)
			for _, id := range ids[lo:min(lo+t.maxFill, end)] {
				t.ar.push(leaf, id)
			}
			t.cov.rebuild(leaf)
			level = append(level, leaf)
		}
		lo = end
	}
	for len(level) > 1 {
		next := level[:0]
		for lo := 0; lo < len(level); lo += t.maxFill {
			parent := t.ar.alloc(false)
			for _, c := range level[lo:min(lo+t.maxFill, len(level))] {
				t.ar.push(parent, c)
			}
			t.cov.rebuild(parent)
			next = append(next, parent)
		}
		level = next
	}
	t.root = level[0]
}

// nodesForBulk bounds the node count of a bulk-loaded tree over n entries:
// the leaf level plus a geometric series of parent levels.
func nodesForBulk(n, maxFill int) int {
	total := 0
	level := (n + maxFill - 1) / maxFill
	for {
		total += level
		if level <= 1 {
			return total
		}
		level = (level + maxFill - 1) / maxFill
	}
}
