// Package mining implements the downstream tasks the paper's introduction
// motivates similarity search with — k-NN classification, k-medoids
// clustering, motif discovery and discord (anomaly) detection. The searches
// run on the flat tier (index.Flat), whose envelope filter is a proven lower
// bound of the Euclidean distance, so every answer is exact and each task
// reports how much exact-distance work the bound saved.
package mining

import (
	"errors"
	"fmt"
	"math"

	"sapla/internal/dist"
	"sapla/internal/index"
	"sapla/internal/ts"
	"sapla/internal/ucr"
)

// ErrNoData is returned when a task receives an empty collection.
var ErrNoData = errors.New("mining: no data")

// Classifier is a k-NN majority-vote classifier over an exact flat index.
type Classifier struct {
	k      int
	idx    *index.Flat
	labels []int // by entry ID
}

// NewClassifier builds a classifier with neighbourhood size k.
func NewClassifier(k int) (*Classifier, error) {
	if k < 1 {
		return nil, fmt.Errorf("mining: k must be positive, got %d", k)
	}
	return &Classifier{k: k, idx: index.NewFlat()}, nil
}

// Train indexes the labelled training set. Every series must have the
// length of the first one trained.
func (c *Classifier) Train(data []ucr.Instance) error {
	if len(data) == 0 {
		return ErrNoData
	}
	for _, inst := range data {
		if err := inst.Values.Validate(); err != nil {
			return fmt.Errorf("mining: training series %d: %w", len(c.labels), err)
		}
		if err := c.idx.Insert(index.NewEntry(len(c.labels), inst.Values, nil)); err != nil {
			return err
		}
		c.labels = append(c.labels, inst.Class)
	}
	return nil
}

// Classify predicts the class of s by majority vote among its k nearest
// indexed neighbours, breaking ties toward the nearer class.
func (c *Classifier) Classify(s ts.Series) (int, index.SearchStats, error) {
	if len(c.labels) == 0 {
		return 0, index.SearchStats{}, ErrNoData
	}
	if err := s.Validate(); err != nil {
		return 0, index.SearchStats{}, err
	}
	res, stats, err := c.idx.KNN(dist.Query{Raw: s}, c.k)
	if err != nil || len(res) == 0 {
		return 0, stats, err
	}
	votes := map[int]int{}
	bestDist := map[int]float64{}
	for _, r := range res {
		cl := c.labels[r.Entry.ID]
		votes[cl]++
		if d, ok := bestDist[cl]; !ok || r.Dist < d {
			bestDist[cl] = r.Dist
		}
	}
	best, bestVotes := -1, -1
	for cl, v := range votes {
		if v > bestVotes || (v == bestVotes && bestDist[cl] < bestDist[best]) {
			best, bestVotes = cl, v
		}
	}
	return best, stats, nil
}

// Evaluate classifies every test instance and returns the accuracy and the
// mean pruning power ρ (fraction of the training set measured per query).
func (c *Classifier) Evaluate(test []ucr.Instance) (accuracy, meanRho float64, err error) {
	if len(test) == 0 {
		return 0, 0, ErrNoData
	}
	var correct int
	var rho float64
	for _, inst := range test {
		pred, stats, err := c.Classify(inst.Values)
		if err != nil {
			return 0, 0, err
		}
		if pred == inst.Class {
			correct++
		}
		rho += float64(stats.Measured) / float64(len(c.labels))
	}
	return float64(correct) / float64(len(test)), rho / float64(len(test)), nil
}

// checkCollection returns an error unless data holds at least least series,
// each finite and of the first one's length.
func checkCollection(data []ts.Series, least int) error {
	if len(data) == 0 {
		return ErrNoData
	}
	if len(data) < least {
		return fmt.Errorf("mining: %d series, the task needs at least %d", len(data), least)
	}
	for i, s := range data {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("mining: series %d: %w", i, err)
		}
		if len(s) != len(data[0]) {
			return fmt.Errorf("mining: series %d has %d points, series 0 has %d: %w",
				i, len(s), len(data[0]), ts.ErrLengthMismatch)
		}
	}
	return nil
}

// MotifResult is the closest pair in a collection.
type MotifResult struct {
	I, J     int
	Dist     float64
	Measured int // exact distance computations performed
	Pairs    int // total candidate pairs
}

// Motif finds the top-1 motif — the pair of series with the smallest
// Euclidean distance. Series i is a range query, within the best distance
// found so far, against a flat index holding series 0…i−1, and is then
// inserted: each pair is considered once, and only pairs whose lower bound
// does not exceed the running best are measured.
func Motif(data []ts.Series) (MotifResult, error) {
	if err := checkCollection(data, 2); err != nil {
		return MotifResult{}, err
	}
	n := len(data)
	idx := index.NewFlat()
	res := MotifResult{I: -1, J: -1, Dist: math.Inf(1), Pairs: n * (n - 1) / 2}
	for i, s := range data {
		nn, stats, err := idx.Range(dist.Query{Raw: s}, res.Dist)
		if err != nil {
			return MotifResult{}, err
		}
		res.Measured += stats.Measured
		if len(nn) > 0 && nn[0].Dist < res.Dist {
			res.I, res.J, res.Dist = nn[0].Entry.ID, i, nn[0].Dist
		}
		if err := idx.Insert(index.NewEntry(i, s, nil)); err != nil {
			return MotifResult{}, err
		}
	}
	return res, nil
}

// DiscordResult is the series least similar to everything else.
type DiscordResult struct {
	Index    int
	NNDist   float64 // distance to its nearest neighbour
	Measured int
}

// Discord finds the top-1 discord — the series whose nearest-neighbour
// distance is largest. Every series is a 2-NN query against a flat index of
// the whole collection: one answer is the series itself, the other its
// nearest neighbour.
func Discord(data []ts.Series) (DiscordResult, error) {
	if err := checkCollection(data, 2); err != nil {
		return DiscordResult{}, err
	}
	idx := index.NewFlat()
	for i, s := range data {
		if err := idx.Insert(index.NewEntry(i, s, nil)); err != nil {
			return DiscordResult{}, err
		}
	}
	best := DiscordResult{Index: -1, NNDist: -1}
	for i, s := range data {
		nn, stats, err := idx.KNN(dist.Query{Raw: s}, 2)
		if err != nil {
			return DiscordResult{}, err
		}
		best.Measured += stats.Measured
		// A duplicate of s ties it at distance 0 and may come first.
		r := nn[0]
		if r.Entry.ID == i {
			r = nn[1]
		}
		if r.Dist > best.NNDist {
			best.Index, best.NNDist = i, r.Dist
		}
	}
	return best, nil
}

// KMedoidsResult is a clustering of the collection.
type KMedoidsResult struct {
	Medoids    []int
	Assignment []int
	Cost       float64 // sum of exact distances to assigned medoids
	Iterations int
}

// KMedoids clusters the collection into k groups with a PAM-style
// alternating refinement on exact distances.
func KMedoids(data []ts.Series, k, maxIter int) (KMedoidsResult, error) {
	if err := checkCollection(data, 1); err != nil {
		return KMedoidsResult{}, err
	}
	n := len(data)
	if k < 1 || k > n {
		return KMedoidsResult{}, fmt.Errorf("mining: k=%d out of range for %d series", k, n)
	}
	if maxIter < 1 {
		maxIter = 10
	}
	exact := func(i, j int) float64 { return math.Sqrt(ts.EuclideanSq(data[i], data[j])) }
	// Deterministic farthest-first seeding.
	medoids := []int{0}
	for len(medoids) < k {
		bestI, bestD := -1, -1.0
		for i := 0; i < n; i++ {
			dmin := math.Inf(1)
			for _, md := range medoids {
				if i == md {
					dmin = 0
					break
				}
				if d := exact(i, md); d < dmin {
					dmin = d
				}
			}
			if dmin > bestD {
				bestD, bestI = dmin, i
			}
		}
		medoids = append(medoids, bestI)
	}

	assign := make([]int, n)
	res := KMedoidsResult{}
	for iter := 0; iter < maxIter; iter++ {
		res.Iterations = iter + 1
		// Assignment step.
		cost := 0.0
		for i := 0; i < n; i++ {
			bestC, bestD := 0, math.Inf(1)
			for ci, md := range medoids {
				if d := exact(i, md); d < bestD {
					bestC, bestD = ci, d
				}
			}
			assign[i] = bestC
			cost += bestD
		}
		// Update step: each cluster's new medoid minimises intra-cluster cost.
		changed := false
		for ci := range medoids {
			bestMd, bestCost := medoids[ci], math.Inf(1)
			for i := 0; i < n; i++ {
				if assign[i] != ci {
					continue
				}
				var c float64
				for j := 0; j < n; j++ {
					if assign[j] == ci {
						c += exact(i, j)
					}
				}
				if c < bestCost {
					bestCost, bestMd = c, i
				}
			}
			if bestMd != medoids[ci] {
				medoids[ci] = bestMd
				changed = true
			}
		}
		res.Cost = cost
		if !changed {
			break
		}
	}
	res.Medoids = medoids
	res.Assignment = assign
	return res, nil
}
