package index

import (
	"math"

	"sapla/internal/dist"
)

// rnode is one R-tree node.
type rnode struct {
	isLeaf   bool
	rect     Rect
	children []*rnode
	entries  []*Entry
}

// RTree is a Guttman R-tree (quadratic split) over the representation
// coefficient vectors — the APCA-style MBR baseline of the paper's Section 6.
type RTree struct {
	method           string
	dim              int
	minFill, maxFill int
	root             *rnode
	size             int
	filter           dist.FilterFunc
	nodeDist         nodeDistFunc
}

// NewRTree builds an empty R-tree for the given method over series of length
// n reduced with coefficient budget m. minFill/maxFill follow the paper's
// Section 6 settings (2 and 5).
func NewRTree(method string, n, m, minFill, maxFill int) (*RTree, error) {
	f, err := dist.Filter(method)
	if err != nil {
		return nil, err
	}
	nd, err := nodeDistFor(method, n, m)
	if err != nil {
		return nil, err
	}
	if minFill < 1 || maxFill < 2*minFill-1 {
		minFill, maxFill = 2, 5
	}
	return &RTree{method: method, minFill: minFill, maxFill: maxFill, filter: f, nodeDist: nd}, nil
}

// Len implements Index.
func (t *RTree) Len() int { return t.size }

// Insert implements Index.
func (t *RTree) Insert(e *Entry) error {
	if t.dim == 0 {
		t.dim = len(e.Vec())
	}
	if len(e.Vec()) != t.dim {
		return errDim(t.dim, len(e.Vec()))
	}
	if t.root == nil {
		t.root = &rnode{isLeaf: true, rect: pointRect(e.Vec()), entries: []*Entry{e}}
		t.size++
		return nil
	}
	if sib := t.insert(t.root, e); sib != nil {
		old := t.root
		t.root = &rnode{
			isLeaf:   false,
			rect:     old.rect.union(sib.rect),
			children: []*rnode{old, sib},
		}
	}
	t.size++
	return nil
}

// insert descends to the best leaf, splitting on overflow; a non-nil return
// is a new sibling for the caller to adopt.
func (t *RTree) insert(nd *rnode, e *Entry) *rnode {
	er := pointRect(e.Vec())
	nd.rect.extend(er)
	if nd.isLeaf {
		nd.entries = append(nd.entries, e)
		if len(nd.entries) > t.maxFill {
			return t.splitLeaf(nd)
		}
		return nil
	}
	best := t.chooseChild(nd, er)
	if sib := t.insert(best, e); sib != nil {
		nd.children = append(nd.children, sib)
		if len(nd.children) > t.maxFill {
			return t.splitInternal(nd)
		}
	}
	return nil
}

// chooseChild picks the child needing the least margin enlargement
// (ties: smallest margin), Guttman's ChooseLeaf step.
func (t *RTree) chooseChild(nd *rnode, er Rect) *rnode {
	var best *rnode
	bestEnl, bestMargin := math.Inf(1), math.Inf(1)
	for _, ch := range nd.children {
		enl := ch.rect.enlargement(er)
		mg := ch.rect.margin()
		if enl < bestEnl || (enl == bestEnl && mg < bestMargin) { //sapla:floateq exact tie-break on enlargement; ties fall through to the smaller margin
			best, bestEnl, bestMargin = ch, enl, mg
		}
	}
	return best
}

// splitLeaf quadratically splits an overfull leaf, returning the new sibling.
func (t *RTree) splitLeaf(nd *rnode) *rnode {
	g1, g2 := quadraticSplit(nd.entries, func(e *Entry) Rect { return pointRect(e.Vec()) }, t.minFill)
	nd.entries = g1
	nd.rect = rectOfEntries(g1)
	return &rnode{isLeaf: true, entries: g2, rect: rectOfEntries(g2)}
}

// splitInternal quadratically splits an overfull internal node.
func (t *RTree) splitInternal(nd *rnode) *rnode {
	g1, g2 := quadraticSplit(nd.children, func(c *rnode) Rect { return c.rect }, t.minFill)
	nd.children = g1
	nd.rect = rectOfNodes(g1)
	return &rnode{isLeaf: false, children: g2, rect: rectOfNodes(g2)}
}

func rectOfEntries(es []*Entry) Rect {
	r := pointRect(es[0].Vec())
	for _, e := range es[1:] {
		r.extend(pointRect(e.Vec()))
	}
	return r
}

func rectOfNodes(ns []*rnode) Rect {
	r := ns[0].rect.clone()
	for _, c := range ns[1:] {
		r.extend(c.rect)
	}
	return r
}

// quadraticSplit is Guttman's quadratic split over any items with bounding
// rectangles, using margins instead of areas (see Rect).
func quadraticSplit[T any](items []T, rectOf func(T) Rect, minFill int) (g1, g2 []T) {
	// Seeds: the pair whose union wastes the most margin.
	s1, s2, worst := 0, 1, math.Inf(-1)
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			ri, rj := rectOf(items[i]), rectOf(items[j])
			waste := ri.union(rj).margin() - ri.margin() - rj.margin()
			if waste > worst {
				worst, s1, s2 = waste, i, j
			}
		}
	}
	r1, r2 := rectOf(items[s1]).clone(), rectOf(items[s2]).clone()
	g1 = append(g1, items[s1])
	g2 = append(g2, items[s2])
	rest := make([]T, 0, len(items)-2)
	for i, it := range items {
		if i != s1 && i != s2 {
			rest = append(rest, it)
		}
	}
	for len(rest) > 0 {
		// If one group must take everything remaining to reach minFill, do so.
		if len(g1)+len(rest) == minFill {
			g1 = append(g1, rest...)
			break
		}
		if len(g2)+len(rest) == minFill {
			g2 = append(g2, rest...)
			break
		}
		// Pick the item with the strongest preference.
		bestI, bestDiff := 0, math.Inf(-1)
		var bestE1, bestE2 float64
		for i, it := range rest {
			r := rectOf(it)
			e1, e2 := r1.enlargement(r), r2.enlargement(r)
			if d := math.Abs(e1 - e2); d > bestDiff {
				bestDiff, bestI, bestE1, bestE2 = d, i, e1, e2
			}
		}
		it := rest[bestI]
		rest = append(rest[:bestI], rest[bestI+1:]...)
		if bestE1 < bestE2 || (bestE1 == bestE2 && len(g1) <= len(g2)) { //sapla:floateq exact tie-break on enlargement; ties fall through to the smaller group
			g1 = append(g1, it)
			r1.extend(rectOf(it))
		} else {
			g2 = append(g2, it)
			r2.extend(rectOf(it))
		}
	}
	return g1, g2
}

// treeNode interface for the shared k-NN search.

// IsLeaf implements treeNode.
func (n *rnode) IsLeaf() bool { return n.isLeaf }

// NumChildren implements treeNode.
func (n *rnode) NumChildren() int { return len(n.children) }

// Child implements treeNode.
func (n *rnode) Child(i int) treeNode { return n.children[i] }

// Entries implements treeNode.
func (n *rnode) Entries() []*Entry { return n.entries }

// boundOf implements searcher: the MBR lower bound of the node.
func (t *RTree) boundOf(q dist.Query, nd treeNode) float64 {
	return t.nodeDist(q, nd.(*rnode).rect)
}

// KNN implements Index.
func (t *RTree) KNN(q dist.Query, k int) ([]Result, SearchStats, error) {
	return pooledKNN(t, q, k)
}

// KNNWith implements WorkspaceSearcher.
func (t *RTree) KNNWith(ws *Workspace, q dist.Query, k int) ([]Result, SearchStats, error) {
	if t.root == nil {
		return nil, SearchStats{}, nil
	}
	return knnSearch(ws, t, t.root, q, k, t.filter)
}

// Stats implements the tree-shape reporting of Figures 15–16.
func (t *RTree) Stats() TreeStats {
	var s TreeStats
	s.Entries = t.size
	var walk func(nd *rnode, depth int)
	var maxDepth int
	walk = func(nd *rnode, depth int) {
		if depth > maxDepth {
			maxDepth = depth
		}
		if nd.isLeaf {
			s.LeafNodes++
			return
		}
		s.InternalNodes++
		for _, c := range nd.children {
			walk(c, depth+1)
		}
	}
	if t.root != nil {
		walk(t.root, 1)
	}
	s.Height = maxDepth
	return s
}
