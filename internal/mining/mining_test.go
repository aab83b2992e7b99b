package mining

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sapla/internal/ts"
	"sapla/internal/ucr"
)

func dataset(t testing.TB, name string, n, count, queries int) ([]ucr.Instance, []ucr.Instance) {
	t.Helper()
	d, err := ucr.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return d.Generate(ucr.Config{Length: n, Count: count, Queries: queries})
}

func values(insts []ucr.Instance) []ts.Series {
	out := make([]ts.Series, len(insts))
	for i := range insts {
		out[i] = insts[i].Values
	}
	return out
}

func TestClassifierOnCBF(t *testing.T) {
	train, test := dataset(t, "CBF", 128, 90, 30)
	c, err := NewClassifier(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Train(train); err != nil {
		t.Fatal(err)
	}
	acc, rho, err := c.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.8 {
		t.Fatalf("1-NN accuracy on CBF = %v, want ≥ 0.8", acc)
	}
	if rho <= 0 || rho > 1 {
		t.Fatalf("rho = %v", rho)
	}
}

func TestClassifierKGreaterThanOne(t *testing.T) {
	train, test := dataset(t, "TwoPatterns", 128, 60, 12)
	c, err := NewClassifier(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Train(train); err != nil {
		t.Fatal(err)
	}
	acc, _, err := c.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.6 {
		t.Fatalf("3-NN accuracy = %v", acc)
	}
}

func TestClassifierErrors(t *testing.T) {
	if _, err := NewClassifier(0); err == nil {
		t.Fatal("k=0 accepted")
	}
	c, _ := NewClassifier(1)
	if err := c.Train(nil); err != ErrNoData {
		t.Fatalf("empty train: %v", err)
	}
	if _, _, err := c.Classify(ts.Series{1, 2, 3}); err != ErrNoData {
		t.Fatalf("classify before train: %v", err)
	}
	if _, _, err := c.Evaluate(nil); err != ErrNoData {
		t.Fatalf("empty evaluate: %v", err)
	}
}

func TestMotifFindsPlantedPair(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 128
	data := make([]ts.Series, 20)
	for i := range data {
		s := make(ts.Series, n)
		var v float64
		for j := range s {
			v += rng.NormFloat64()
			s[j] = v
		}
		data[i] = s
	}
	// Plant a near-duplicate pair (indices 4 and 17).
	dup := data[4].Clone()
	for j := range dup {
		dup[j] += rng.NormFloat64() * 0.01
	}
	data[17] = dup

	res, err := Motif(data)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.I == 4 && res.J == 17) {
		t.Fatalf("motif = (%d,%d), want (4,17)", res.I, res.J)
	}
	if res.Measured > res.Pairs {
		t.Fatalf("measured %d of %d pairs", res.Measured, res.Pairs)
	}
	// Verify against brute force.
	bi, bj, bd := -1, -1, math.Inf(1)
	for i := 0; i < len(data); i++ {
		for j := i + 1; j < len(data); j++ {
			if d := math.Sqrt(ts.EuclideanSq(data[i], data[j])); d < bd {
				bi, bj, bd = i, j, d
			}
		}
	}
	if bi != res.I || bj != res.J || math.Abs(bd-res.Dist) > 1e-9 {
		t.Fatalf("motif (%d,%d,%v) != brute force (%d,%d,%v)", res.I, res.J, res.Dist, bi, bj, bd)
	}
}

func TestMotifPrunes(t *testing.T) {
	// Pruning needs distance spread: on a homogeneous single-family dataset
	// every pair sits within the bound's slack of the minimum and nothing
	// prunes. Mix two families so cross-family pairs are provably far.
	ecg, _ := dataset(t, "ECG200", 128, 20, 0)
	eog, _ := dataset(t, "EOGHorizontalSignal", 128, 20, 0)
	data := append(values(ecg), values(eog)...)
	res, err := Motif(data)
	if err != nil {
		t.Fatal(err)
	}
	if res.Measured >= res.Pairs {
		t.Fatalf("no pruning: measured %d of %d", res.Measured, res.Pairs)
	}
}

func TestMotifErrors(t *testing.T) {
	if _, err := Motif(nil); err == nil {
		t.Fatal("empty accepted")
	}
	one := []ts.Series{make(ts.Series, 32)}
	for i := range one[0] {
		one[0][i] = float64(i)
	}
	if _, err := Motif(one); err == nil {
		t.Fatal("single series accepted")
	}
}

func TestDiscordFindsPlantedOutlier(t *testing.T) {
	insts, _ := dataset(t, "InsectWingbeatSound", 128, 25, 0)
	data := values(insts)
	// Plant an outlier: pure noise, unlike the harmonic family.
	rng := rand.New(rand.NewSource(2))
	out := make(ts.Series, 128)
	for j := range out {
		out[j] = rng.NormFloat64() * 5
	}
	data = append(data, out.ZNormalize())
	outIdx := len(data) - 1

	res, err := Discord(data)
	if err != nil {
		t.Fatal(err)
	}
	if res.Index != outIdx {
		t.Fatalf("discord = %d, want %d", res.Index, outIdx)
	}
	// Verify against brute force.
	bi, bd := -1, -1.0
	for i := range data {
		nn := math.Inf(1)
		for j := range data {
			if i == j {
				continue
			}
			if d := math.Sqrt(ts.EuclideanSq(data[i], data[j])); d < nn {
				nn = d
			}
		}
		if nn > bd {
			bi, bd = i, nn
		}
	}
	if bi != res.Index || math.Abs(bd-res.NNDist) > 1e-9 {
		t.Fatalf("discord (%d,%v) != brute force (%d,%v)", res.Index, res.NNDist, bi, bd)
	}
	if res.Measured >= len(data)*(len(data)-1) {
		t.Fatal("discord did no pruning")
	}
}

func TestDiscordErrors(t *testing.T) {
	if _, err := Discord(nil); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestKMedoidsRecoverableClusters(t *testing.T) {
	// Two well-separated synthetic families → k=2 should split them.
	rng := rand.New(rand.NewSource(3))
	var data []ts.Series
	var truth []int
	for i := 0; i < 20; i++ {
		s := make(ts.Series, 96)
		for j := range s {
			base := math.Sin(2 * math.Pi * float64(j) / 24)
			if i%2 == 1 {
				base = float64(j)/48 - 1 // ramp family
			}
			s[j] = base + rng.NormFloat64()*0.05
		}
		data = append(data, s)
		truth = append(truth, i%2)
	}
	res, err := KMedoids(data, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Medoids) != 2 || len(res.Assignment) != len(data) {
		t.Fatalf("bad result %+v", res)
	}
	// Clustering must match the two families up to label permutation.
	agree, disagree := 0, 0
	for i := range data {
		if res.Assignment[i] == truth[i] {
			agree++
		} else {
			disagree++
		}
	}
	if agree != len(data) && disagree != len(data) {
		t.Fatalf("clusters do not match families: %d/%d", agree, len(data))
	}
	if res.Cost <= 0 || res.Iterations < 1 {
		t.Fatalf("suspicious result %+v", res)
	}
}

func TestKMedoidsErrors(t *testing.T) {
	insts, _ := dataset(t, "Coffee", 64, 6, 0)
	data := values(insts)
	if _, err := KMedoids(data, 0, 5); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := KMedoids(data, 7, 5); err == nil {
		t.Fatal("k>n accepted")
	}
	if _, err := KMedoids(nil, 2, 5); err == nil {
		t.Fatal("empty accepted")
	}
}

// bruteNN returns the index of data's nearest series to q other than skip
// (−1 for none) and its distance; ties go to the lower index.
func bruteNN(data []ts.Series, q ts.Series, skip int) (int, float64) {
	bi, bd := -1, math.Inf(1)
	for j, s := range data {
		if j == skip {
			continue
		}
		if d := math.Sqrt(ts.EuclideanSq(q, s)); d < bd {
			bi, bd = j, d
		}
	}
	return bi, bd
}

// harmonics is a homogeneous harmonic family: many pairs sit close together,
// where a filter that is not a lower bound dismisses the true motif and
// misjudges nearest neighbours.
func harmonics(t testing.TB) []ts.Series {
	insts, _ := dataset(t, "InsectWingbeatSound", 128, 200, 0)
	return values(insts)
}

func TestMotifExactOnHarmonics(t *testing.T) {
	data := harmonics(t)
	motif, err := Motif(data)
	if err != nil {
		t.Fatal(err)
	}
	bi, bj, bd := -1, -1, math.Inf(1)
	for j := range data {
		if i, d := bruteNN(data[:j], data[j], -1); d < bd {
			bi, bj, bd = i, j, d
		}
	}
	if motif.I != bi || motif.J != bj || math.Abs(motif.Dist-bd) > 1e-9 {
		t.Fatalf("motif (%d,%d,%v) != brute force (%d,%d,%v)", motif.I, motif.J, motif.Dist, bi, bj, bd)
	}
	if motif.Measured >= motif.Pairs {
		t.Fatalf("motif did no pruning: measured %d of %d", motif.Measured, motif.Pairs)
	}
}

func TestDiscordExactOnHarmonics(t *testing.T) {
	data := harmonics(t)
	discord, err := Discord(data)
	if err != nil {
		t.Fatal(err)
	}
	di, dd := -1, -1.0
	for i := range data {
		if _, nn := bruteNN(data, data[i], i); nn > dd {
			di, dd = i, nn
		}
	}
	if discord.Index != di || math.Abs(discord.NNDist-dd) > 1e-9 {
		t.Fatalf("discord (%d,%v) != brute force (%d,%v)", discord.Index, discord.NNDist, di, dd)
	}
}

// TestClassifierMatchesBruteForce1NN: every 1-NN prediction comes from the
// scan's nearest training series. Each training series is its own class, so
// a prediction names the neighbour the classifier found.
func TestClassifierMatchesBruteForce1NN(t *testing.T) {
	train, test := dataset(t, "CBF", 128, 300, 100)
	for i := range train {
		train[i].Class = i
	}
	c, err := NewClassifier(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Train(train); err != nil {
		t.Fatal(err)
	}
	trainValues := values(train)
	wrong := 0
	for _, inst := range test {
		got, _, err := c.Classify(inst.Values)
		if err != nil {
			t.Fatal(err)
		}
		if nn, _ := bruteNN(trainValues, inst.Values, -1); got != nn {
			wrong++
		}
	}
	if wrong > 0 {
		t.Fatalf("%d of %d queries found another neighbour than the brute-force 1-NN", wrong, len(test))
	}
}

// TestTasksRejectMixedLengths: a collection whose series differ in length
// is an error, not a panic.
func TestTasksRejectMixedLengths(t *testing.T) {
	data := []ts.Series{make(ts.Series, 32), make(ts.Series, 64), make(ts.Series, 32)}
	for i, s := range data {
		for j := range s {
			s[j] = float64((i + 1) * j)
		}
	}
	if _, err := Motif(data); !errors.Is(err, ts.ErrLengthMismatch) {
		t.Fatalf("motif: %v", err)
	}
	if _, err := Discord(data); !errors.Is(err, ts.ErrLengthMismatch) {
		t.Fatalf("discord: %v", err)
	}
	if _, err := KMedoids(data, 2, 5); !errors.Is(err, ts.ErrLengthMismatch) {
		t.Fatalf("kmedoids: %v", err)
	}
	c, _ := NewClassifier(1)
	if err := c.Train([]ucr.Instance{{Values: data[0]}, {Values: data[1]}}); err == nil {
		t.Fatal("classifier trained on mixed lengths")
	}
	if _, _, err := c.Classify(data[1]); err == nil {
		t.Fatal("classifier answered a query of another length")
	}
}
