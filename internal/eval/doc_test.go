package eval

import (
	"testing"

	"sapla/internal/ucr"
)

// TestOptionsWorkersBound exercises the explicit worker bound path of the
// dataset fan-out.
func TestOptionsWorkersBound(t *testing.T) {
	opt := tinyOptions(t)
	opt.Datasets = opt.Datasets[:2]
	opt.Cfg.Count = 6
	opt.Workers = 1
	rows, _, err := ReductionExperiment(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows with Workers=1")
	}
}

func TestSourcesAdapter(t *testing.T) {
	srcs := Sources(ucr.Datasets()[:3])
	if len(srcs) != 3 {
		t.Fatalf("got %d sources", len(srcs))
	}
	for i, s := range srcs {
		if s.DatasetName() != ucr.Datasets()[i].Name {
			t.Fatalf("source %d name mismatch", i)
		}
	}
}
