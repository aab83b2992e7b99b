// Motifs & discords: the data-mining tasks the paper's introduction
// motivates, plus subsequence search over one long stream — all through the
// public API, exact, with lower-bound pruning statistics.
//
//	go run ./examples/motifs
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"sapla"
)

func main() {
	const (
		count = 60
		n     = 128
	)
	// A mixed collection: two signal families plus one planted near-duplicate
	// pair and one planted outlier.
	rng := rand.New(rand.NewSource(11))
	var data []sapla.Series
	for i := 0; i < count; i++ {
		s := make(sapla.Series, n)
		for j := range s {
			x := float64(j)
			if i%2 == 0 {
				s[j] = math.Sin(2*math.Pi*x/32) + rng.NormFloat64()*0.2
			} else {
				s[j] = x/float64(n)*4 - 2 + rng.NormFloat64()*0.2
			}
		}
		data = append(data, s)
	}
	// Planted motif: data[53] ≈ data[10].
	dup := data[10].Clone()
	for j := range dup {
		dup[j] += rng.NormFloat64() * 0.02
	}
	data[53] = dup
	// Planted discord: pure noise.
	noise := make(sapla.Series, n)
	for j := range noise {
		noise[j] = rng.NormFloat64() * 3
	}
	data[29] = noise

	motif, err := sapla.Motif(data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top motif   : series %d ↔ %d, distance %.4f\n", motif.I, motif.J, motif.Dist)
	fmt.Printf("              verified %d of %d candidate pairs exactly (%.1f%% pruned)\n\n",
		motif.Measured, motif.Pairs, 100*(1-float64(motif.Measured)/float64(motif.Pairs)))

	discord, err := sapla.Discord(data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top discord : series %d, nearest-neighbour distance %.4f\n\n", discord.Index, discord.NNDist)

	// Cluster the collection without the planted outlier — farthest-first
	// seeding would otherwise (correctly) dedicate a medoid to it.
	var clean []sapla.Series
	var family []int
	for i, s := range data {
		if i == 29 {
			continue
		}
		clean = append(clean, s)
		family = append(family, i%2)
	}
	clusters, err := sapla.KMedoids(clean, 2, 20)
	if err != nil {
		log.Fatal(err)
	}
	agree := 0
	for i, c := range clusters.Assignment {
		if (family[i] == family[0]) == (c == clusters.Assignment[0]) {
			agree++
		}
	}
	if agree < len(clean)-agree {
		agree = len(clean) - agree // label permutation
	}
	fmt.Printf("k-medoids   : 2 clusters, cost %.2f, %d iterations; family agreement %d/%d\n\n",
		clusters.Cost, clusters.Iterations, agree, len(clean))

	// Subsequence search: find a pattern inside one long stream.
	long := make(sapla.Series, 4000)
	var v float64
	for i := range long {
		v += rng.NormFloat64() * 0.4
		long[i] = v
	}
	pattern := make(sapla.Series, 64)
	for j := range pattern {
		pattern[j] = 8 * math.Sin(4*math.Pi*float64(j)/64)
	}
	for _, off := range []int{700, 2900} {
		for j, p := range pattern {
			long[off+j] = p + rng.NormFloat64()*0.05
		}
	}
	ix, err := sapla.NewSubseqIndex(long, 64)
	if err != nil {
		log.Fatal(err)
	}
	matches, stats, err := ix.TopK(pattern, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("subsequence : indexed %d windows of a %d-point stream\n", ix.Windows(), len(long))
	for _, m := range matches {
		fmt.Printf("              match at offset %d, distance %.4f\n", m.Offset, m.Dist)
	}
	fmt.Printf("              %d windows measured exactly (ρ = %.3f)\n",
		stats.Measured, float64(stats.Measured)/float64(ix.Windows()))
}
