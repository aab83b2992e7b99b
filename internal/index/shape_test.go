package index

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"sapla/internal/dist"
)

// shapeHash accumulates a tree's observable state as little-endian words.
type shapeHash struct{ h hash.Hash }

func (s shapeHash) put(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		s.h.Write(b[:])
	}
}

func (s shapeHash) putFloats(fs []float64) {
	for _, f := range fs {
		s.put(math.Float64bits(f))
	}
}

func (s shapeHash) putStats(st SearchStats) {
	s.put(uint64(st.NodesVisited), uint64(st.Filtered), uint64(st.Measured))
}

// walkShape hashes every node of the tree in pre-order: its leaf flag, the
// IDs of the entries in its slots (leaves) or the walk of its children
// (internal nodes), and its cover bits — the MBR's Lo and Hi, or the hull's
// representative entry IDs, volume and cover radii.
func walkShape(s shapeHash, idx Index) {
	switch tr := idx.(type) {
	case *RTree:
		walkNodes(s, &tr.tree, func(r Rect) {
			s.putFloats(r.Lo)
			s.putFloats(r.Hi)
		})
	case *DBCH:
		walkNodes(s, &tr.tree, func(h hull) {
			s.put(uint64(tr.ents[h.hullU].ID), uint64(tr.ents[h.hullL].ID))
			s.putFloats([]float64{h.volume, h.coverU, h.coverL})
		})
	default:
		panic(fmt.Sprintf("walkShape: %T", idx))
	}
}

// walkNodes is walkShape over the skeleton, with putCover hashing one cover.
func walkNodes[C any](s shapeHash, t *tree[C], putCover func(C)) {
	var walk func(nd int32)
	walk = func(nd int32) {
		ss := t.ar.slotsOf(nd)
		if t.ar.isLeaf[nd] {
			s.put(1, uint64(len(ss)))
			for _, eid := range ss {
				s.put(uint64(t.ents[eid].ID))
			}
		} else {
			s.put(0, uint64(len(ss)))
		}
		putCover(t.ar.covers[nd])
		if !t.ar.isLeaf[nd] {
			for _, c := range ss {
				walk(c)
			}
		}
	}
	if t.root != nilNode {
		walk(t.root)
	}
}

// hashTreeState hashes the tree's Stats, its node structure, k-NN answers and
// search stats for every query at k ∈ {1, 8}, and Range answers at three
// radii taken from the 1-NN and 8-NN distances.
func hashTreeState(t *testing.T, s shapeHash, idx Index, queries []dist.Query) {
	t.Helper()
	type statser interface{ Stats() TreeStats }
	st := idx.(statser).Stats()
	s.put(uint64(st.InternalNodes), uint64(st.LeafNodes), uint64(st.Height), uint64(st.Entries))
	walkShape(s, idx)
	ws := NewWorkspace()
	for _, q := range queries {
		var radii []float64
		for _, k := range []int{1, 8} {
			res, sst, err := idx.KNNWith(ws, q, k)
			if err != nil {
				t.Fatal(err)
			}
			s.put(uint64(len(res)))
			for _, r := range res {
				s.put(uint64(r.Entry.ID), math.Float64bits(r.Dist))
			}
			s.putStats(sst)
			if len(res) > 0 {
				radii = append(radii, res[len(res)-1].Dist)
			}
		}
		if len(radii) == 2 {
			radii = append(radii, radii[1]*1.25)
		}
		for _, r := range radii {
			res, sst, err := idx.Range(q, r)
			if err != nil {
				t.Fatal(err)
			}
			s.put(uint64(len(res)))
			for _, r := range res {
				s.put(uint64(r.Entry.ID), math.Float64bits(r.Dist))
			}
			s.putStats(sst)
		}
	}
}

// TestTreeShapeGolden pins both trees' shapes and answers bit for bit: the
// R-tree and the DBCH-tree (with and without SafeBound) over SAPLA, APCA and
// PAA entries, built by Insert, by BulkLoad and (DBCH) by InsertBatch into a
// non-empty tree, then after deleting every third ID and (DBCH) after
// Compact. Each row hashes, after every step, the tree's Stats, a pre-order
// walk of its nodes with their entry IDs and cover bits, the k-NN answers,
// distance bits and SearchStats of 20 queries at k ∈ {1, 8}, and Range at
// three radii. A storage or loop change that keeps the trees' behaviour keeps
// every constant; only walkShape may follow a new node layout.
func TestTreeShapeGolden(t *testing.T) {
	const n, m, count = 128, 12, 300
	want := map[string]string{
		"RTree/SAPLA/Insert":               "798fde2064275156",
		"RTree/SAPLA/BulkLoad":             "a98ea50497cb9d83",
		"RTree/APCA/Insert":                "80695579bac7ea1e",
		"RTree/APCA/BulkLoad":              "e7361e63d2a89e17",
		"RTree/PAA/Insert":                 "2235cef9482e678e",
		"RTree/PAA/BulkLoad":               "3bbb039eb39bd2db",
		"DBCH/SAPLA/Insert":                "99a912acea9882fb",
		"DBCH/SAPLA/BulkLoad":              "3865da51b565a682",
		"DBCH/SAPLA/InsertBatch":           "99a912acea9882fb",
		"DBCH/APCA/Insert":                 "021db9e1e8302f67",
		"DBCH/APCA/BulkLoad":               "594e33597edd5fcb",
		"DBCH/APCA/InsertBatch":            "021db9e1e8302f67",
		"DBCH/PAA/Insert":                  "c46457e3a50457a1",
		"DBCH/PAA/BulkLoad":                "d15ecd8e8cf20f09",
		"DBCH/PAA/InsertBatch":             "c46457e3a50457a1",
		"DBCH+SafeBound/SAPLA/Insert":      "109dd4d55c2837b8",
		"DBCH+SafeBound/SAPLA/BulkLoad":    "0f5926e16b27fb7c",
		"DBCH+SafeBound/SAPLA/InsertBatch": "109dd4d55c2837b8",
		"DBCH+SafeBound/APCA/Insert":       "ecfd88b78e4b36d9",
		"DBCH+SafeBound/APCA/BulkLoad":     "46f66eebb6c7f3ba",
		"DBCH+SafeBound/APCA/InsertBatch":  "ecfd88b78e4b36d9",
		"DBCH+SafeBound/PAA/Insert":        "ff2f616f4d13a815",
		"DBCH+SafeBound/PAA/BulkLoad":      "848993d1d4768a81",
		"DBCH+SafeBound/PAA/InsertBatch":   "ff2f616f4d13a815",
	}
	for _, method := range []string{"SAPLA", "APCA", "PAA"} {
		meth := buildMethod(t, method)
		entries := makeEntries(t, meth, rand.New(rand.NewSource(430)), count, n, m)
		var queries []dist.Query
		for _, e := range makeEntries(t, meth, rand.New(rand.NewSource(431)), 20, n, m) {
			queries = append(queries, dist.NewQuery(e.Raw, e.Rep))
		}
		for _, kind := range []string{"RTree", "DBCH", "DBCH+SafeBound"} {
			paths := []string{"Insert", "BulkLoad"}
			if kind != "RTree" {
				paths = append(paths, "InsertBatch")
			}
			for _, path := range paths {
				name := fmt.Sprintf("%s/%s/%s", kind, method, path)
				t.Run(name, func(t *testing.T) {
					s := shapeHash{sha256.New()}
					var idx Index
					var db *DBCH
					if kind == "RTree" {
						rt, err := NewRTree(method, n, m, 2, 5)
						if err != nil {
							t.Fatal(err)
						}
						idx = rt
					} else {
						var err error
						if db, err = NewDBCH(method, 2, 5); err != nil {
							t.Fatal(err)
						}
						db.SafeBound = kind == "DBCH+SafeBound"
						idx = db
					}
					switch path {
					case "Insert":
						for _, e := range entries {
							if err := idx.Insert(e); err != nil {
								t.Fatal(err)
							}
						}
					case "BulkLoad":
						type bulkLoader interface{ BulkLoad([]*Entry) error }
						if err := idx.(bulkLoader).BulkLoad(entries); err != nil {
							t.Fatal(err)
						}
					case "InsertBatch":
						for _, e := range entries[:count/3] {
							if err := db.Insert(e); err != nil {
								t.Fatal(err)
							}
						}
						if err := db.InsertBatch(entries[count/3:]); err != nil {
							t.Fatal(err)
						}
					}
					hashTreeState(t, s, idx, queries)
					type deleter interface{ Delete(int) bool }
					for id := 0; id < count; id += 3 {
						if !idx.(deleter).Delete(id) {
							t.Fatalf("entry %d not found", id)
						}
					}
					hashTreeState(t, s, idx, queries)
					if db != nil {
						db.Compact()
						hashTreeState(t, s, idx, queries)
					}
					if got := fmt.Sprintf("%x", s.h.Sum(nil)[:8]); got != want[name] {
						t.Errorf("shape hash %s, want %s", got, want[name])
					}
				})
			}
		}
	}
}
