package reduce

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"sapla/internal/segment"
	"sapla/internal/ts"
	"sapla/internal/ucr"
)

// scanErrorTable is the O(n³) table errorTable replaces: every window's
// least-squares line against every point of the window. It is the oracle of
// the hull table's tests.
func scanErrorTable(c ts.Series) [][]float64 {
	p := ts.NewPrefix(c)
	tab := make([][]float64, len(c))
	for s := range tab {
		row := make([]float64, len(c)-s)
		for e := s; e < len(c); e++ {
			row[e-s] = segment.ExactMaxDeviation(c[s:e+1], segment.FitWindow(p, s, e+1))
		}
		tab[s] = row
	}
	return tab
}

// defaultDatasets are the twelve datasets of eval.DefaultOptions, one per
// signal family.
var defaultDatasets = []string{
	"CBF", "ECG200", "EOGHorizontalSignal", "TwoPatterns", "Lightning2",
	"ItalyPowerDemand", "InsectWingbeatSound", "SyntheticControl",
	"FreezerRegularTrain", "GunPoint", "Coffee", "Mallat",
}

func datasetSeries(t testing.TB, name string, n, count int) []ts.Series {
	d, err := ucr.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := d.Generate(ucr.Config{Length: n, Count: count})
	out := make([]ts.Series, len(data))
	for i, in := range data {
		out[i] = in.Values
	}
	return out
}

// TestAPLAErrorTableMatchesScan: on the experiments' own series the hull
// table is the scan's table bit for bit, so APLA's segmentation and every
// figure built on it are the exact objective's. The test runs on one
// goroutine, so a -race build checks only the 256-point series: the scan
// would take about a minute there.
func TestAPLAErrorTableMatchesScan(t *testing.T) {
	type job struct {
		name string
		n    int
	}
	var jobs []job
	for _, n := range []int{256, 512} {
		for _, name := range defaultDatasets {
			jobs = append(jobs, job{name, n})
		}
	}
	jobs = append(jobs, job{"CBF", 1024})
	if raceEnabled {
		jobs = jobs[:len(defaultDatasets)]
	}
	for _, j := range jobs {
		for i, c := range datasetSeries(t, j.name, j.n, 3) {
			got, want := errorTable(c), scanErrorTable(c)
			for s := range want {
				for k := range want[s] {
					if math.Float64bits(got[s][k]) != math.Float64bits(want[s][k]) {
						t.Fatalf("%s n=%d series %d: ε(%d..%d) = %v, scan %v",
							j.name, j.n, i, s, s+k, got[s][k], want[s][k])
					}
				}
			}
		}
	}
}

// floatBytes encodes values as the little-endian bits FuzzAPLAErrorTable
// decodes.
func floatBytes(c ...float64) []byte {
	out := make([]byte, 8*len(c))
	for i, v := range c {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

func seedSeries(n int, f func(i int) float64) []byte {
	c := make([]float64, n)
	for i := range c {
		c[i] = f(i)
	}
	return floatBytes(c...)
}

// FuzzAPLAErrorTable holds the hull table to the scan in every cell: never
// above it, and below it by no more than errorTable's documented bound,
// 16u·C + 6u·(C + |A|·(e−s) + |B|) + 16(e−s+1)·2⁻¹⁰⁷⁴, where u = 2⁻⁵³ and
// C = max|c[s..e]|.
// The seeds are the inputs where the two can part: windows that are straight
// lines up to rounding.
func FuzzAPLAErrorTable(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	f.Add(floatBytes(3))
	f.Add(floatBytes(1, -2))
	f.Add(floatBytes(0.5, 7, -1))
	f.Add(seedSeries(64, func(i int) float64 { return 0.1 * float64(i) }))
	f.Add(seedSeries(64, func(i int) float64 { return 3*float64(i) - 17 }))
	f.Add(seedSeries(64, func(i int) float64 { // one value 512 ulps off an integer line
		if i == 9 {
			return math.Float64frombits(math.Float64bits(10) + 512)
		}
		return 3*float64(i) - 17
	}))
	f.Add(seedSeries(64, func(int) float64 { return float64(rng.Intn(21) - 10) }))
	f.Add(seedSeries(64, func(i int) float64 { return float64(i / 16) }))
	f.Add(seedSeries(64, func(int) float64 { return 2.5 }))
	f.Add(seedSeries(64, func(i int) float64 { return 0.3*float64(i) + 1e-14*rng.NormFloat64() }))
	f.Add(seedSeries(64, func(i int) float64 { return 1e8 + float64(i%5) + 0.25*float64(i) }))
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := min(len(raw)/8, 96)
		if n == 0 {
			return
		}
		c := make(ts.Series, n)
		for i := range c {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return
			}
			c[i] = v
		}
		got, want := errorTable(c), scanErrorTable(c)
		p := ts.NewPrefix(c)
		for s := range want {
			var m float64
			for k := range want[s] {
				m = max(m, math.Abs(c[s+k]))
				h, w := got[s][k], want[s][k]
				if h > w {
					t.Fatalf("ε(%d..%d): hull %v above the scan's %v", s, s+k, h, w)
				}
				ln := segment.FitWindow(p, s, s+k+1)
				bound := 0x1p-53*(16*m+6*(m+math.Abs(ln.A)*float64(k)+math.Abs(ln.B))) +
					16*float64(k+1)*0x1p-1074
				if w-h > bound {
					t.Fatalf("ε(%d..%d): hull %v, scan %v: gap %g past the bound %g",
						s, s+k, h, w, w-h, bound)
				}
			}
		}
	})
}

// BenchmarkAPLAErrorTable prices the hull table that APLA's dynamic program
// reads, on a CBF series.
func BenchmarkAPLAErrorTable(b *testing.B) {
	for _, n := range []int{256, 1024} {
		c := datasetSeries(b, "CBF", n, 1)[0]
		b.Run("n"+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				errorTable(c)
			}
		})
	}
}
