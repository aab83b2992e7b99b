package eval

import (
	"bytes"
	"encoding/csv"
	"testing"
	"time"
)

// parse reads back what a writer produced, verifying structure.
func parse(t *testing.T, buf *bytes.Buffer, wantCols, wantRows int) [][]string {
	t.Helper()
	recs, err := csv.NewReader(buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != wantRows+1 {
		t.Fatalf("got %d records, want %d", len(recs), wantRows+1)
	}
	for i, rec := range recs {
		if len(rec) != wantCols {
			t.Fatalf("record %d has %d fields, want %d", i, len(rec), wantCols)
		}
	}
	return recs
}

func TestWriteReductionCSV(t *testing.T) {
	rows := []ReductionRow{
		{Method: "SAPLA", M: 12, MaxDev: 1.5, SumSegMaxDev: 4.2, Time: 3 * time.Microsecond, Series: 10},
		{Method: "PAA", M: 24, MaxDev: 2.5, SumSegMaxDev: 9.1, Time: time.Microsecond, Series: 10},
	}
	var buf bytes.Buffer
	if err := WriteReductionCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	recs := parse(t, &buf, 6, 2)
	if recs[1][0] != "SAPLA" || recs[1][4] != "3000" {
		t.Fatalf("row = %v", recs[1])
	}
}

func TestWriteIndexCSV(t *testing.T) {
	rows := []IndexRow{{Method: "SAPLA", Tree: TreeDBCH, PruningPower: 0.5,
		Accuracy: 0.9, ReduceTime: 2 * time.Millisecond, IngestTime: time.Millisecond,
		KNNTime: time.Microsecond, Internal: 4, Leaf: 10, Height: 3, Queries: 25}}
	if rows[0].TotalIngest() != 3*time.Millisecond {
		t.Fatalf("TotalIngest = %v", rows[0].TotalIngest())
	}
	var buf bytes.Buffer
	if err := WriteIndexCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	recs := parse(t, &buf, 11, 1)
	if recs[1][1] != TreeDBCH || recs[1][2] != "0.5" {
		t.Fatalf("row = %v", recs[1])
	}
}

func TestWriteWorkedCSV(t *testing.T) {
	rows, err := WorkedExample()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteWorkedCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	parse(t, &buf, 5, len(rows))
}

func TestWriteTightnessCSV(t *testing.T) {
	rows := []TightnessRow{{Measure: "PAR", Mean: 12.5, Tightness: 0.6, Violations: 3, Pairs: 100}}
	var buf bytes.Buffer
	if err := WriteTightnessCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	recs := parse(t, &buf, 5, 1)
	if recs[1][0] != "PAR" || recs[1][3] != "3" {
		t.Fatalf("row = %v", recs[1])
	}
}

func TestWriteScalingCSV(t *testing.T) {
	rows := []ScalingRow{{Method: "APLA", N: 512, Time: 2 * time.Millisecond}}
	var buf bytes.Buffer
	if err := WriteScalingCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	recs := parse(t, &buf, 3, 1)
	if recs[1][2] != "2000000" {
		t.Fatalf("row = %v", recs[1])
	}
}

// TotalIngest is the paper's Figure 14a quantity: reduction plus tree build.
func (r IndexRow) TotalIngest() time.Duration { return r.ReduceTime + r.IngestTime }
