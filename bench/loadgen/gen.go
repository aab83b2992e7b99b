package main

import (
	"math"
	"math/rand"
)

// The generator is the benchmark's only source of inputs. It lives here and
// not in internal/ucr so that a product change cannot move what the server
// is asked to do: the same seed always yields the same series and queries.

// shapeCount is the number of series families in the mixture.
const shapeCount = 4

// genSeries draws one raw series of the given family; the caller
// z-normalises it.
func genSeries(rng *rand.Rand, shape, length int) []float64 {
	out := make([]float64, length)
	switch shape {
	case 0: // random walk
		var v float64
		for i := range out {
			v += rng.NormFloat64()
			out[i] = v
		}
	case 1: // noisy seasonal with a slow trend
		freq := 1 + 7*rng.Float64()
		phase := 2 * math.Pi * rng.Float64()
		trend := rng.NormFloat64()
		noise := 0.1 + 0.4*rng.Float64()
		for i := range out {
			t := float64(i) / float64(length)
			out[i] = math.Sin(2*math.Pi*freq*t+phase) + trend*t + noise*rng.NormFloat64()
		}
	case 2: // step levels
		level := rng.NormFloat64()
		next := 0
		for i := range out {
			if i == next {
				level = 3 * rng.NormFloat64()
				next = i + length/8 + rng.Intn(length/3)
			}
			out[i] = level + 0.2*rng.NormFloat64()
		}
	default: // cylinder / bell / funnel
		a := length/8 + rng.Intn(length/8)
		b := a + length/4 + rng.Intn(length/2)
		if b > length {
			b = length
		}
		amp := 6 + rng.NormFloat64()
		kind := rng.Intn(3)
		for i := range out {
			out[i] = rng.NormFloat64()
			if i < a || i >= b {
				continue
			}
			switch kind {
			case 0:
				out[i] += amp
			case 1:
				out[i] += amp * float64(i-a) / float64(b-a)
			default:
				out[i] += amp * float64(b-i) / float64(b-a)
			}
		}
	}
	return out
}

// normalise z-normalises s in place and rounds every value to six decimals,
// the precision a sensor feed plausibly carries. Rounding keeps the JSON
// bodies short and makes each value its own shortest decimal form, so the
// server parses exactly the float64 the oracle scans.
func normalise(s []float64) {
	var mean float64
	for _, v := range s {
		mean += v
	}
	mean /= float64(len(s))
	var ss float64
	for _, v := range s {
		ss += (v - mean) * (v - mean)
	}
	sd := math.Sqrt(ss / float64(len(s)))
	if sd < 1e-12 {
		sd = 1
	}
	for i, v := range s {
		s[i] = math.Round((v-mean)/sd*1e6) / 1e6
	}
}

// genDataset returns n z-normalised series of the given length, families
// interleaved so every family is equally represented.
func genDataset(rng *rand.Rand, n, length int) [][]float64 {
	data := make([][]float64, n)
	for i := range data {
		data[i] = genSeries(rng, i%shapeCount, length)
		normalise(data[i])
	}
	return data
}

// genQueries returns n queries: even positions perturb a stored series (a
// near neighbour exists, pruning is strong), odd positions are fresh draws
// (no close neighbour, pruning is weak). Both kinds cycle through the
// families, so every seed asks the same mix and the search work differs
// from seed to seed only by what the draws themselves differ.
func genQueries(rng *rand.Rand, data [][]float64, n int) [][]float64 {
	length := len(data[0])
	out := make([][]float64, n)
	for i := range out {
		shape := (i / 2) % shapeCount
		if i%2 == 0 {
			// genDataset stores family f at the positions f, f+shapeCount, ….
			src := data[rng.Intn(len(data)/shapeCount)*shapeCount+shape]
			q := make([]float64, length)
			noise := 0.1 + 0.3*rng.Float64()
			for j, v := range src {
				q[j] = v + noise*rng.NormFloat64()
			}
			out[i] = q
		} else {
			out[i] = genSeries(rng, shape, length)
		}
		normalise(out[i])
	}
	return out
}
