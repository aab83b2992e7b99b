package eval

import (
	"testing"

	"sapla/internal/ucr"
)

// detOptions is a small but non-trivial configuration for the determinism
// checks: several datasets so work-stealing actually interleaves units.
func detOptions(t *testing.T, workers int) Options {
	t.Helper()
	opt := tinyOptions(t)
	opt.Cfg = ucr.Config{Length: 48, Count: 12, Queries: 2}
	opt.Ks = []int{2, 4}
	opt.Workers = workers
	return opt
}

// TestReductionExperimentDeterministic: the parallel run must be
// byte-identical to Workers=1 on every non-timing field (Duration fields are
// wall-clock measurements and legitimately vary run to run).
func TestReductionExperimentDeterministic(t *testing.T) {
	base, _, err := ReductionExperiment(detOptions(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		got, _, err := ReductionExperiment(detOptions(t, workers))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(got), len(base))
		}
		for i := range got {
			g, b := got[i], base[i]
			g.Time, b.Time = 0, 0
			if g != b {
				t.Fatalf("workers=%d row %d: %+v != %+v", workers, i, g, b)
			}
		}
	}
}

// TestIndexExperimentDeterministic: same contract for the index experiment.
func TestIndexExperimentDeterministic(t *testing.T) {
	base, _, err := IndexExperiment(detOptions(t, 1), 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{3} {
		got, _, err := IndexExperiment(detOptions(t, workers), 12)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(got), len(base))
		}
		for i := range got {
			g, b := got[i], base[i]
			g.ReduceTime, b.ReduceTime = 0, 0
			g.IngestTime, b.IngestTime = 0, 0
			g.KNNTime, b.KNNTime = 0, 0
			if g != b {
				t.Fatalf("workers=%d row %d: %+v != %+v", workers, i, g, b)
			}
		}
	}
}

// TestIndexByKDeterministic: the K-sweep rows have no timing fields at all,
// so they must match exactly.
func TestIndexByKDeterministic(t *testing.T) {
	_, base, err := IndexExperiment(detOptions(t, 1), 12)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := IndexExperiment(detOptions(t, 4), 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(base) {
		t.Fatalf("%d rows, want %d", len(got), len(base))
	}
	for i := range got {
		if got[i] != base[i] {
			t.Fatalf("row %d: %+v != %+v", i, got[i], base[i])
		}
	}
}

// TestTightnessExperimentDeterministic: per-dataset slots folded in order.
func TestTightnessExperimentDeterministic(t *testing.T) {
	base, err := TightnessExperiment(detOptions(t, 1), 12)
	if err != nil {
		t.Fatal(err)
	}
	got, err := TightnessExperiment(detOptions(t, 3), 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != base[i] {
			t.Fatalf("row %d: %+v != %+v", i, got[i], base[i])
		}
	}
}

// TestClassificationExperimentDeterministic: the classification fan-out now
// runs through the shared pool with per-unit slots.
func TestClassificationExperimentDeterministic(t *testing.T) {
	base, err := ClassificationExperiment(detOptions(t, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ClassificationExperiment(detOptions(t, 4), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != base {
		t.Fatalf("%+v != %+v", got, base)
	}
}
