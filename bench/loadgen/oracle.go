package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// The oracle is a linear scan over the generator's own data. It shares no
// code with the product: the distance is spelled out here in the summation
// order the repository pins as its contract (sequential sum of squared
// differences, then one square root), so distances compare bit for bit.
//
// The served search filters with Dist_PAR, which is not a strict lower
// bound: now and then it dismisses a true neighbour (the paper reports this
// as accuracy, Eq. 15). So the verifier separates two things. Validity is
// pass/fail: every returned element must be a stored series at its exact
// distance, in canonical order, without repeats, in the requested number.
// Recall — how many of the oracle's elements the answer holds — is a
// measured quality metric with its own bound.

// hit is one (series ID, exact distance) answer element.
type hit struct {
	ID   int     `json:"id"`
	Dist float64 `json:"dist"`
}

// before is the canonical (distance, ID) order every answer is sorted by.
func before(a, b hit) bool {
	if a.Dist < b.Dist || b.Dist < a.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

func euclid(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// truth is what the oracle knows about one query.
type truth struct {
	query  []float64
	top    []hit   // the k nearest base series, canonical order
	radius float64 // distance of the k-th
	within []hit   // every base series within radius, canonical order
}

// oracle answers for the base data; series lists every series a response
// may legitimately name, base data first, then the written ones.
type oracle struct {
	series [][]float64
	nbase  int
	racing bool // written series may be live while queries run; set per run
	truths []truth
	scan   time.Duration // mean linear-scan time per query
}

// scanOne fills dists with the distance from q to every base series and
// returns the k nearest in canonical order.
func scanOne(data [][]float64, q []float64, k int, dists []float64) []hit {
	top := make([]hit, 0, k+1)
	for id, s := range data {
		d := euclid(q, s)
		dists[id] = d
		h := hit{ID: id, Dist: d}
		if len(top) == k && !before(h, top[k-1]) {
			continue
		}
		pos := sort.Search(len(top), func(i int) bool { return before(h, top[i]) })
		top = append(top, hit{})
		copy(top[pos+1:], top[pos:])
		top[pos] = h
		if len(top) > k {
			top = top[:k]
		}
	}
	return top
}

// newOracle scans every query against the base data on both cores.
func newOracle(data, written, queries [][]float64, k int) *oracle {
	o := &oracle{
		series: append(append([][]float64(nil), data...), written...),
		nbase:  len(data),
		truths: make([]truth, len(queries)),
	}
	var total time.Duration
	var mu sync.Mutex
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dists := make([]float64, len(data))
			var mine time.Duration
			for qi := w; qi < len(queries); qi += workers {
				start := time.Now()
				top := scanOne(data, queries[qi], k, dists)
				mine += time.Since(start)
				t := truth{query: queries[qi], top: top, radius: top[len(top)-1].Dist}
				for id, d := range dists {
					if d <= t.radius {
						t.within = append(t.within, hit{ID: id, Dist: d})
					}
				}
				sort.Slice(t.within, func(i, j int) bool { return before(t.within[i], t.within[j]) })
				o.truths[qi] = t
			}
			mu.Lock()
			total += mine
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	o.scan = total / time.Duration(len(queries))
	return o
}

// valid checks the pass/fail part of an answer to query qi: known IDs,
// exact distances, canonical order, no repeats. Written series are accepted
// only in a run whose queries race the writer.
func (o *oracle) valid(qi int, got []hit) error {
	t := &o.truths[qi]
	for i, h := range got {
		if i > 0 && !before(got[i-1], h) {
			return fmt.Errorf("result %d (id %d) repeats or is out of (distance, id) order", i, h.ID)
		}
		if h.ID < 0 || h.ID >= len(o.series) || (h.ID >= o.nbase && !o.racing) {
			return fmt.Errorf("result %d names series %d, which is not stored", i, h.ID)
		}
		// Bit for bit: the served distance must be the same float64.
		if d := euclid(t.query, o.series[h.ID]); math.Float64bits(d) != math.Float64bits(h.Dist) {
			return fmt.Errorf("series %d: distance %v, oracle %v", h.ID, h.Dist, d)
		}
	}
	return nil
}

// judgeKNN validates a k-NN answer and returns how many of the oracle's k
// nearest it missed. A base series counts as missed when it is absent yet
// nearer than the answer's last element; one that a racing written series
// pushed past the end of the answer was not owed.
func (o *oracle) judgeKNN(qi int, got []hit, k int) (missed int, err error) {
	if len(got) != k {
		return 0, fmt.Errorf("got %d results, want %d", len(got), k)
	}
	if err := o.valid(qi, got); err != nil {
		return 0, err
	}
	have := make(map[int]bool, len(got))
	for _, h := range got {
		have[h.ID] = true
	}
	for _, want := range o.truths[qi].top {
		if !have[want.ID] && before(want, got[len(got)-1]) {
			missed++
		}
	}
	return missed, nil
}

// judgeRange validates a range answer (nothing beyond the radius) and
// returns how many of the oracle's base series it missed.
func (o *oracle) judgeRange(qi int, got []hit) (missed int, err error) {
	if err := o.valid(qi, got); err != nil {
		return 0, err
	}
	t := &o.truths[qi]
	have := make(map[int]bool, len(got))
	for _, h := range got {
		if h.Dist > t.radius {
			return 0, fmt.Errorf("series %d at %v lies beyond the radius %v", h.ID, h.Dist, t.radius)
		}
		have[h.ID] = true
	}
	for _, want := range t.within {
		if !have[want.ID] {
			missed++
		}
	}
	return missed, nil
}
