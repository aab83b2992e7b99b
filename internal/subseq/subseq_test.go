package subseq

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"sapla/internal/ts"
)

// makeLong builds a noisy random walk with a distinctive pattern planted at
// the given offsets.
func makeLong(seed int64, n int, pattern ts.Series, offsets ...int) ts.Series {
	rng := rand.New(rand.NewSource(seed))
	long := make(ts.Series, n)
	var v float64
	for i := range long {
		v += rng.NormFloat64() * 0.5
		long[i] = v
	}
	for _, off := range offsets {
		for j, p := range pattern {
			long[off+j] = p + rng.NormFloat64()*0.01
		}
	}
	return long
}

func sinePattern(w int) ts.Series {
	p := make(ts.Series, w)
	for i := range p {
		p[i] = 10 * math.Sin(4*math.Pi*float64(i)/float64(w))
	}
	return p
}

func TestMatchFindsPlantedPattern(t *testing.T) {
	const n, w = 2000, 64
	pattern := sinePattern(w)
	long := makeLong(1, n, pattern, 500)
	ix, err := New(long, w)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Windows() != n-w+1 {
		t.Fatalf("windows = %d", ix.Windows())
	}
	ms, stats, err := ix.Match(pattern, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Offset != 500 {
		t.Fatalf("match = %+v, want offset 500", ms)
	}
	if stats.Measured == 0 || stats.Measured > ix.Windows() {
		t.Fatalf("measured = %d", stats.Measured)
	}
}

func TestTopKSuppressesTrivialMatches(t *testing.T) {
	const n, w = 3000, 64
	pattern := sinePattern(w)
	long := makeLong(2, n, pattern, 400, 1500, 2500)
	ix, err := New(long, w)
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err := ix.TopK(pattern, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("got %d matches", len(ms))
	}
	found := map[int]bool{}
	for _, m := range ms {
		// Each match must be near one planted offset, and no two matches
		// may overlap.
		near := -1
		for _, off := range []int{400, 1500, 2500} {
			if abs(m.Offset-off) < w {
				near = off
			}
		}
		if near < 0 {
			t.Fatalf("match at %d is not near any planted offset", m.Offset)
		}
		if found[near] {
			t.Fatalf("two matches for planted offset %d", near)
		}
		found[near] = true
	}
	for i := range ms {
		for j := i + 1; j < len(ms); j++ {
			if abs(ms[i].Offset-ms[j].Offset) < w {
				t.Fatal("overlapping matches survived suppression")
			}
		}
	}
}

func TestRangeMatchFindsAllOccurrences(t *testing.T) {
	const n, w = 2000, 64
	pattern := sinePattern(w)
	long := makeLong(3, n, pattern, 300, 900)
	ix, err := New(long, w)
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err := ix.RangeMatch(pattern, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	hit300, hit900 := false, false
	for _, m := range ms {
		if m.Offset == 300 {
			hit300 = true
		}
		if m.Offset == 900 {
			hit900 = true
		}
		if m.Dist > 1.0 {
			t.Fatalf("match outside radius: %+v", m)
		}
	}
	if !hit300 || !hit900 {
		t.Fatalf("occurrences missed: 300=%v 900=%v (matches %v)", hit300, hit900, ms)
	}
}

func TestStrideMisses(t *testing.T) {
	const n, w = 1000, 64
	pattern := sinePattern(w)
	long := makeLong(4, n, pattern, 501) // offset NOT divisible by the stride
	ix, err := New(long, w, WithStride(4))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Windows() >= n-w+1 {
		t.Fatal("stride did not reduce window count")
	}
	ms, _, err := ix.Match(pattern, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The best indexed window is an overlapping neighbour within stride.
	if abs(ms[0].Offset-501) >= 4 {
		t.Fatalf("nearest window at %d, want within 4 of 501", ms[0].Offset)
	}
}

func TestValidation(t *testing.T) {
	long := makeLong(6, 300, nil)
	if _, err := New(long, 1); err == nil {
		t.Fatal("w=1 accepted")
	}
	if _, err := New(long, 400); err == nil {
		t.Fatal("w>n accepted")
	}
	if _, err := New(ts.Series{}, 10); err == nil {
		t.Fatal("empty sequence accepted")
	}
	ix, err := New(long, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Match(make(ts.Series, 32), 1); err != ErrQueryLength {
		t.Fatalf("wrong-length query: %v", err)
	}
	if _, _, err := ix.TopK(make(ts.Series, 32), 1); err != ErrQueryLength {
		t.Fatalf("wrong-length TopK query: %v", err)
	}
	if _, _, err := ix.RangeMatch(make(ts.Series, 32), 1); err != ErrQueryLength {
		t.Fatalf("wrong-length range query: %v", err)
	}
}

// bruteForce returns every stride-1 window of long (z-normalised when znorm)
// with its exact distance to query, sorted by (distance, offset) — the
// answer order of a linear scan.
func bruteForce(long, query ts.Series, w int, znorm bool) []Match {
	if znorm {
		query = query.ZNormalize()
	}
	var all []Match
	for off := 0; off+w <= len(long); off++ {
		win := long[off : off+w]
		if znorm {
			win = win.ZNormalize()
		}
		all = append(all, Match{Offset: off, Dist: math.Sqrt(ts.EuclideanSq(win, query))})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].Offset < all[j].Offset
	})
	return all
}

// TestMatchIsExactAgainstBruteForce: every query form returns exactly a
// linear scan's answer, including at ranks a lower bound that is not one
// would get wrong.
func TestMatchIsExactAgainstBruteForce(t *testing.T) {
	const n, w = 1500, 48
	long := makeLong(7, n, nil)
	query := long[600 : 600+w].Clone()
	for i := range query {
		query[i] += 0.3 * math.Sin(float64(i))
	}
	cases := []struct {
		name  string
		znorm bool
		run   func(ix *Index, all []Match) ([]Match, []Match, error)
	}{
		{"Match/k=10", false, func(ix *Index, all []Match) ([]Match, []Match, error) {
			ms, _, err := ix.Match(query, 10)
			return ms, all[:10], err
		}},
		{"TopK/k=3", false, func(ix *Index, all []Match) ([]Match, []Match, error) {
			ms, _, err := ix.TopK(query, 3)
			return ms, suppress(all, w, 3), err
		}},
		{"RangeMatch", false, func(ix *Index, all []Match) ([]Match, []Match, error) {
			radius := all[25].Dist
			ms, _, err := ix.RangeMatch(query, radius)
			var want []Match
			for _, m := range all {
				if m.Dist <= radius {
					want = append(want, m)
				}
			}
			return ms, want, err
		}},
		{"Match/k=10/znorm", true, func(ix *Index, all []Match) ([]Match, []Match, error) {
			ms, _, err := ix.Match(query, 10)
			return ms, all[:10], err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var opts []Option
			if tc.znorm {
				opts = append(opts, WithZNormalize())
			}
			ix, err := New(long, w, opts...)
			if err != nil {
				t.Fatal(err)
			}
			got, want, err := tc.run(ix, bruteForce(long, query, w, tc.znorm))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) || len(want) == 0 {
				t.Fatalf("%d matches, brute force has %d", len(got), len(want))
			}
			for i := range want {
				if got[i].Offset != want[i].Offset || math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
					t.Fatalf("rank %d: index (%d,%v) != brute force (%d,%v)",
						i, got[i].Offset, got[i].Dist, want[i].Offset, want[i].Dist)
				}
			}
		})
	}
}

func TestZNormalizedMatching(t *testing.T) {
	// The planted pattern is scaled and shifted; z-normalised matching still
	// finds it, plain matching prefers an amplitude-matched window.
	const n, w = 1500, 64
	pattern := sinePattern(w)
	long := makeLong(8, n, nil)
	for j, p := range pattern {
		long[800+j] = 0.3*p + 50 // heavy rescale + offset
	}
	zix, err := New(long, w, WithZNormalize())
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err := zix.Match(pattern, 1)
	if err != nil {
		t.Fatal(err)
	}
	if abs(ms[0].Offset-800) > 2 {
		t.Fatalf("z-normalised match at %d, want ≈800", ms[0].Offset)
	}
}

// TestMatchExactOnLongWalk: ROADMAP measurement 6's protocol — 20 noisy
// windows of a 40 000-point walk at w = 256, k = 10. On these seeds a DBCH
// tree filtering with Dist_PAR, which is not a lower bound, answered query 16
// with a wrong ninth neighbour.
func TestMatchExactOnLongWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("40 000 windows")
	}
	const n, w, k = 40000, 256, 10
	long := makeLong(18, n, nil)
	ix, err := New(long, w)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	for qi := 0; qi < 20; qi++ {
		off := rng.Intn(n - w)
		query := long[off : off+w].Clone()
		for i := range query {
			query[i] += 0.5 * rng.NormFloat64()
		}
		got, _, err := ix.Match(query, k)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(long, query, w, false)[:k]
		for i := range want {
			if got[i].Offset != want[i].Offset || math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("query %d (window %d), rank %d: index (%d,%v) != brute force (%d,%v)",
					qi, off, i, got[i].Offset, got[i].Dist, want[i].Offset, want[i].Dist)
			}
		}
	}
}
