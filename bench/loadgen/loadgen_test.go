package main

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"
)

func TestMedianDuration(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		in   []time.Duration
		want time.Duration
	}{
		{nil, 0},
		{[]time.Duration{7 * ms}, 7 * ms},
		{[]time.Duration{9 * ms, 3 * ms}, 6 * ms},
		{[]time.Duration{5 * ms, 9 * ms, 3 * ms, 4 * ms, 30 * ms}, 5 * ms},
		{[]time.Duration{2 * ms, 2 * ms, 8 * ms, 100 * ms}, 5 * ms},
	} {
		if got := medianDuration(tc.in); got != tc.want {
			t.Errorf("medianDuration(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestSlowdown(t *testing.T) {
	if got := slowdown(nil); got != 1 {
		t.Errorf("slowdown of no probes = %v, want 1", got)
	}
	probes := []time.Duration{probeRef, 2 * probeRef, 3 * probeRef / 2}
	if got := slowdown(probes); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("slowdown = %v, want 1.5", got)
	}
	if d := probe(); d <= 0 {
		t.Errorf("probe took %v", d)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ p, want float64 }{
		{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}, {95, 48},
	} {
		if got := percentile(sorted, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestClassEstimates(t *testing.T) {
	ms := time.Millisecond
	c := newClass(2)
	for _, d := range []time.Duration{4 * ms, 2 * ms, 3 * ms} {
		c.add(0, d)
	}
	for _, d := range []time.Duration{10 * ms, 5 * ms, 50 * ms} {
		c.add(1, d)
	}
	if est := c.estimates(1); len(est) != 2 || est[0] != 3 || est[1] != 10 {
		t.Fatalf("estimates = %v, want [3 10]", est)
	}
	// On a host that ran at half speed the same samples stand for half the cost.
	est := c.estimates(2)
	if len(est) != 2 || est[0] != 1.5 || est[1] != 5 {
		t.Fatalf("estimates at slowdown 2 = %v, want [1.5 5]", est)
	}
	// 2 requests in 6.5 ms of summed service time, 4 units each.
	if got, want := perSecond(est, 4), 8/0.0065; math.Abs(got-want) > 1e-9 {
		t.Errorf("perSecond = %v, want %v", got, want)
	}
	if got := len(c.wall()); got != 6 {
		t.Errorf("wall holds %d samples, want 6", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Request: 1, Parent: -1, Start: 0, End: 100},
		{Name: "child", Request: 1, Parent: 0, Start: 10, End: 40},
		{Name: "child", Request: 1, Parent: 0, Start: 30, End: 60}, // overlaps the first: 10..60 covered once
		{Name: "leaf", Request: 1, Parent: 1, Start: 15, End: 20},
		{Name: "child", Request: 1, Parent: 0, Start: 90, End: 120}, // clipped to the parent's end
	}
	st := selfTimes(spans)
	if got := st["root"].SelfNS; got != 100-50-10 {
		t.Errorf("root self = %d, want 40", got)
	}
	if got := st["child"]; got.Count != 3 || got.SelfNS != (30-5)+30+30 || got.TotalNS != 90 {
		t.Errorf("child = %+v", got)
	}
	if got := st["leaf"].SelfNS; got != 5 {
		t.Errorf("leaf self = %d, want 5", got)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 1, -1)
	tr.end(id)
	on := newTracer()
	on.end(on.begin("x", 1, -1))
	if len(on.spans) != 1 || on.spans[0].End < on.spans[0].Start {
		t.Fatalf("spans = %+v", on.spans)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	sp, err := findSpec("smoke")
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := makeInputs(sp, 7), makeInputs(sp, 7), makeInputs(sp, 8)
	same := func(x, y []request) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i].path != y[i].path || !bytes.Equal(x[i].body, y[i].body) {
				return false
			}
		}
		return true
	}
	for name, lists := range map[string][3][]request{
		"load": {a.load, b.load, c.load}, "knn": {a.knn, b.knn, c.knn}, "range": {a.ranges, b.ranges, c.ranges},
		"batch": {a.batches, b.batches, c.batches}, "ingest": {a.ingests, b.ingests, c.ingests},
	} {
		if !same(lists[0], lists[1]) {
			t.Errorf("%s: the same seed gave different requests", name)
		}
		if same(lists[0], lists[2]) {
			t.Errorf("%s: different seeds gave the same requests", name)
		}
	}
	for _, s := range a.data {
		var mean float64
		for _, v := range s {
			mean += v
		}
		if math.Abs(mean/float64(len(s))) > 1e-5 {
			t.Fatalf("series not z-normalised: mean %v", mean/float64(len(s)))
		}
	}
}

func TestOracleJudges(t *testing.T) {
	sp, _ := findSpec("smoke")
	in := makeInputs(sp, 3)
	o := in.oracle
	top := o.truths[0].top
	if missed, err := o.judgeKNN(0, top, knnK); err != nil || missed != 0 {
		t.Fatalf("oracle's own answer: missed %d, err %v", missed, err)
	}
	// Swap the nearest for the true 11th: valid, one miss.
	dists := make([]float64, len(in.data))
	eleven := scanOne(in.data, in.queries[0], knnK+1, dists)
	lossy := append(append([]hit(nil), top[1:]...), eleven[knnK])
	if missed, err := o.judgeKNN(0, lossy, knnK); err != nil || missed != 1 {
		t.Errorf("lossy answer: missed %d, err %v; want 1, nil", missed, err)
	}
	wrong := append([]hit(nil), top...)
	wrong[3].Dist += 1e-9
	if _, err := o.judgeKNN(0, wrong, knnK); err == nil {
		t.Error("a wrong distance passed")
	}
	if _, err := o.judgeKNN(0, top[:knnK-1], knnK); err == nil {
		t.Error("a short answer passed")
	}
	if missed, err := o.judgeRange(0, o.truths[0].within); err != nil || missed != 0 {
		t.Errorf("range: missed %d, err %v", missed, err)
	}
	if _, err := o.judgeRange(0, eleven); err == nil {
		t.Error("a range answer beyond the radius passed")
	}
	// A written series is acceptable only while it can be live.
	w := hit{ID: sp.n, Dist: euclid(in.queries[0], in.written[0])}
	racing := append([]hit{w}, top[:knnK-1]...)
	if w.Dist > top[0].Dist {
		racing = append(append([]hit(nil), top[:knnK-1]...), w)
		for i := len(racing) - 1; i > 0 && before(racing[i], racing[i-1]); i-- {
			racing[i], racing[i-1] = racing[i-1], racing[i]
		}
	}
	if _, err := o.judgeKNN(0, racing, knnK); err == nil {
		t.Error("serial run accepted a written series")
	}
	o.racing = true
	if _, err := o.judgeKNN(0, racing, knnK); err != nil {
		t.Errorf("racing run rejected a live written series: %v", err)
	}
}

// TestSmoke drives the smoke workload through the real child process, both
// untraced and traced.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns sapla-serve")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	tmp := t.TempDir()
	bin, err := buildServer(ctx, "../..", tmp)
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := findSpec("smoke")
	in := makeInputs(sp, 1)
	e := env{serverBin: bin, tmp: tmp}

	start := time.Now()
	rep, err := plainRun(ctx, e, in, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("smoke run took %v, want < 10s", took)
	}
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("attempted %d, failed %d: %v", rep.Attempted, rep.Failed, rep.Findings)
	}
	// The run must report exactly the metrics BENCHMARK.json promises.
	c, err := readContract("../..")
	if err != nil {
		t.Fatal(err)
	}
	agree := func(kind string, defs []metricDef, got map[string]metric, positive bool) {
		t.Helper()
		for _, def := range defs {
			if v, ok := got[def.Name]; !ok || v.Unit != def.Unit || (positive && v.Value <= 0) {
				t.Errorf("%s metric %s = %+v (reported %v), want unit %s", kind, def.Name, v, ok, def.Unit)
			}
		}
		if len(got) != len(defs) {
			t.Errorf("run reported %d %s metrics, BENCHMARK.json lists %d", len(got), kind, len(defs))
		}
	}
	agree("end-to-end", c.EndToEnd, rep.Metrics, true)

	traced, err := tracedRun(ctx, e, in, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Failed != 0 {
		t.Fatalf("traced run failed %d: %v", traced.Failed, traced.Findings)
	}
	agree("per-layer", c.PerLayer, traced.Metrics, false)
}
