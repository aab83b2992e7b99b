package main

import (
	"math"
	"sort"
	"time"
)

// The service-time estimator has two halves (README.md, "The estimator").
//
// A distinct request is sent once per round; its typical service time is the
// median of those samples. The host this runs on steps between speed levels
// (a neighbour on the sibling hardware thread) and stays on one for seconds
// to hours, so that median moves with the host by 20–30 % from one
// ten-minute stretch to the next. A probe — a fixed compute kernel timed in
// the generator right after every timed request — sees the same levels. Its
// median over the run, relative to its undisturbed time, is the run's
// slowdown, and every timing is divided by it. What is reported is therefore
// an estimate of the cost on an undisturbed host.

// probeRef is the probe's undisturbed time on the host this benchmark was
// calibrated on (2 vCPUs of a Xeon @ 2.1 GHz, model 207): the level its
// fastest samples return to in every run, quiet or busy. On another machine
// it is a constant factor on every timing, the same for both sides of a
// comparison.
const probeRef = 64700 * time.Nanosecond

var probeSink float64

// probe times the kernel: sums of squared differences over 8 KB, half the
// time in one dependent chain of additions, half in four independent ones.
// The halves answer differently to what a neighbour on the sibling hardware
// thread does: the single chain waits on latency and hardly notices, the
// four chains keep the core's ports busy and lose up to half their speed.
// The server's code is a mixture of both kinds, and across the host states
// met while this was written (NOISE.md) it slowed by more than the first
// half and by less than the second; the two together stayed within a few
// per cent of it.
func probe() time.Duration {
	var a, b [1024]float64
	for i := range a {
		a[i] = float64(i) * 0.001
		b[i] = float64(i) * 0.0013
	}
	start := time.Now()
	var s float64
	for rep := 0; rep < 66; rep++ {
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
	}
	var s0, s1, s2, s3 float64
	for rep := 0; rep < 125; rep++ {
		for i := 0; i < len(a); i += 4 {
			d0 := a[i] - b[i]
			d1 := a[i+1] - b[i+1]
			d2 := a[i+2] - b[i+2]
			d3 := a[i+3] - b[i+3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
	}
	probeSink += s + s0 + s1 + s2 + s3
	return time.Since(start)
}

// slowdown is how much slower than undisturbed the host ran over the probes
// taken: their median over probeRef. Without probes it is 1.
func slowdown(probes []time.Duration) float64 {
	if len(probes) == 0 {
		return 1
	}
	return float64(medianDuration(probes)) / float64(probeRef)
}

// medianDuration is the median of samples (the mean of the middle two for an
// even count), or 0 for none.
func medianDuration(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile returns the p-th percentile (0–100) of sorted by linear
// interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// class collects the samples of one traffic class: samples[i] holds every
// timing of distinct request i, one per round it was sent in.
type class struct {
	samples [][]time.Duration
}

func newClass(distinct int) *class { return &class{samples: make([][]time.Duration, distinct)} }

func (c *class) add(i int, d time.Duration) { c.samples[i] = append(c.samples[i], d) }

// count is the number of samples taken, over all distinct requests.
func (c *class) count() int {
	total := 0
	for _, s := range c.samples {
		total += len(s)
	}
	return total
}

// estimates returns each distinct request's service-time estimate in
// milliseconds, ascending: the median of its samples over the run's
// slowdown.
func (c *class) estimates(slowdown float64) []float64 {
	out := make([]float64, 0, len(c.samples))
	for _, s := range c.samples {
		if len(s) > 0 {
			out = append(out, float64(medianDuration(s))/1e6/slowdown)
		}
	}
	sort.Float64s(out)
	return out
}

// wall returns every raw sample in milliseconds, ascending: what a client
// saw including GC pauses, scheduling stalls and noisy neighbours.
func (c *class) wall() []float64 {
	var out []float64
	for _, s := range c.samples {
		for _, d := range s {
			out = append(out, float64(d)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// perSecond is units of work per second of summed service time.
func perSecond(ms []float64, unitsPerRequest int) float64 {
	var sum float64
	for _, v := range ms {
		sum += v
	}
	if sum <= 0 {
		return 0
	}
	return float64(len(ms)*unitsPerRequest) / (sum / 1e3)
}
