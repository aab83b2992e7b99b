package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"testing"

	"sapla/internal/repr"
	"sapla/internal/ts"
	"sapla/internal/ucr"
)

// goldenHash pins the reducer's output over goldenCorpus × goldenBudgets ×
// goldenConfigs. An optimisation must leave the hash unchanged: a
// representation that moves by one bit moves every Dist_PAR bound and every
// answer computed from it.
const goldenHash = "55f60dc908a6b05f787dea54cdbfec39ed37299a1d5749f5a8f44092424b6459"

var goldenBudgets = []int{6, 12, 24}

var goldenConfigs = []struct {
	name string
	cfg  SAPLA
}{
	{"default", SAPLA{}},
	{"exact-bounds", SAPLA{ExactBounds: true}},
	{"skip-refine", SAPLA{SkipRefine: true}},
}

// familySeries returns count series of every internal/ucr family at n
// points, each family's from the first dataset of the archive that uses it.
func familySeries(n, count int) []ts.Series {
	var out []ts.Series
	seen := map[ucr.Family]bool{}
	for _, d := range ucr.Datasets() {
		if seen[d.Family] {
			continue
		}
		seen[d.Family] = true
		data, _ := d.Generate(ucr.Config{Length: n, Count: count})
		for _, in := range data {
			out = append(out, in.Values)
		}
	}
	return out
}

// goldenCorpus is two series of every internal/ucr family and one random walk
// at each of 64, 256 and 1024 points.
func goldenCorpus() []ts.Series {
	var out []ts.Series
	for _, n := range []int{64, 256, 1024} {
		out = append(out, familySeries(n, 2)...)
		out = append(out, randWalk(int64(n)+77, n))
	}
	return out
}

// hashLinear feeds every segment's A and B bits and its right endpoint R.
func hashLinear(h io.Writer, rep repr.Linear) {
	var buf [24]byte
	for _, g := range rep.Segs {
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(g.Line.A))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(g.Line.B))
		binary.LittleEndian.PutUint64(buf[16:], uint64(g.R))
		h.Write(buf[:])
	}
}

// TestReduceGolden holds the reducer's output bit for bit. One warm Reducer
// per configuration reduces the whole corpus, so anything a reduction leaves
// behind for the next one shows here too; and ReduceStages, which builds its
// own workspace, must end where ReduceInto ends.
func TestReduceGolden(t *testing.T) {
	corpus := goldenCorpus()
	if len(corpus) != 12*3*2+3 {
		t.Fatalf("corpus has %d series; the ucr archive no longer covers 12 families", len(corpus))
	}
	h := sha256.New()
	for _, gc := range goldenConfigs {
		r := NewReducerFor(gc.cfg)
		var dst repr.Linear
		for i, c := range corpus {
			for _, m := range goldenBudgets {
				var err error
				if dst, err = r.ReduceInto(dst, c, m); err != nil {
					t.Fatalf("%s series %d m=%d: %v", gc.name, i, m, err)
				}
				hashLinear(h, dst)
				_, _, final, err := gc.cfg.ReduceStages(c, m)
				if err != nil {
					t.Fatal(err)
				}
				if !equalLinear(final, dst) {
					t.Errorf("%s series %d (n=%d) m=%d: ReduceStages' final output differs from ReduceInto's", gc.name, i, len(c), m)
				}
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != goldenHash {
		t.Errorf("reducer output hash %s, pinned %s: the output moved", got, goldenHash)
	}
}
