package eval

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"sapla/internal/ts"
	"sapla/internal/ucr"
)

// tinyOptions keeps the experiments fast in unit tests while touching every
// method and both trees.
func tinyOptions(t *testing.T) Options {
	t.Helper()
	opt := DefaultOptions()
	var ds []ucr.Source
	for _, n := range []string{"CBF", "ECG200", "EOGHorizontalSignal"} {
		d, err := ucr.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	opt.Datasets = ds
	opt.Cfg = ucr.Config{Length: 64, Count: 20, Queries: 2}
	opt.Ms = []int{12}
	opt.Ks = []int{4, 8}
	return opt
}

func rowFor(rows []ReductionRow, method string, m int) *ReductionRow {
	for i := range rows {
		if rows[i].Method == method && rows[i].M == m {
			return &rows[i]
		}
	}
	return nil
}

func TestReductionExperiment(t *testing.T) {
	opt := tinyOptions(t)
	rows, _, err := ReductionExperiment(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 { // 8 methods × 1 budget
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Series != 60 { // 3 datasets × 20 series
			t.Fatalf("%s: measured %d series", r.Method, r.Series)
		}
		if r.MaxDev < 0 || r.Time < 0 {
			t.Fatalf("%s: bad row %+v", r.Method, r)
		}
	}
	// Figure 12a shape: adaptive linear methods beat same-budget PAA on the
	// sum of segment max deviations.
	sapla := rowFor(rows, "SAPLA", 12)
	apla := rowFor(rows, "APLA", 12)
	paa := rowFor(rows, "PAA", 12)
	if sapla == nil || apla == nil || paa == nil {
		t.Fatal("missing rows")
	}
	if apla.SumSegMaxDev > paa.SumSegMaxDev {
		t.Fatalf("APLA sum-seg max dev %v worse than PAA %v", apla.SumSegMaxDev, paa.SumSegMaxDev)
	}
	// Figure 12b shape: APLA is the slowest method by a wide margin.
	for _, r := range rows {
		if r.Method != "APLA" && r.Time > apla.Time {
			t.Fatalf("%s slower than APLA (%v > %v)", r.Method, r.Time, apla.Time)
		}
	}
	// SAPLA is faster than APLA even at this tiny n (the gap grows with n;
	// a loose factor keeps the assertion robust to background load).
	if sapla.Time > apla.Time {
		t.Fatalf("SAPLA %v not faster than APLA %v", sapla.Time, apla.Time)
	}
	out := FormatReduction(rows)
	if !strings.Contains(out, "SAPLA") || !strings.Contains(out, "MaxDev") {
		t.Fatal("FormatReduction missing content")
	}
}

func TestIndexExperiment(t *testing.T) {
	opt := tinyOptions(t)
	rows, _, err := IndexExperiment(opt, 12)
	if err != nil {
		t.Fatal(err)
	}
	// 8 methods × 2 trees + linear scan.
	if len(rows) != 17 {
		t.Fatalf("got %d rows", len(rows))
	}
	var linear *IndexRow
	byKey := map[string]*IndexRow{}
	for i := range rows {
		r := &rows[i]
		if r.Tree == TreeLinear {
			linear = r
			continue
		}
		byKey[r.Method+"/"+r.Tree] = r
		if r.PruningPower <= 0 || r.PruningPower > 1 {
			t.Fatalf("%s/%s: ρ = %v", r.Method, r.Tree, r.PruningPower)
		}
		if r.Accuracy < 0 || r.Accuracy > 1 {
			t.Fatalf("%s/%s: accuracy = %v", r.Method, r.Tree, r.Accuracy)
		}
		if r.Leaf < 1 || r.Height < 1 {
			t.Fatalf("%s/%s: tree stats %+v", r.Method, r.Tree, r)
		}
	}
	if linear == nil {
		t.Fatal("linear scan row missing")
	}
	if linear.PruningPower != 1 || linear.Accuracy != 1 {
		t.Fatalf("linear scan row %+v", linear)
	}
	// Figures 15/16 shape: DBCH needs no more nodes than the R-tree for
	// adaptive methods.
	for _, m := range []string{"SAPLA", "APLA", "APCA"} {
		rt := byKey[m+"/"+TreeR]
		db := byKey[m+"/"+TreeDBCH]
		if rt == nil || db == nil {
			t.Fatalf("missing rows for %s", m)
		}
		if db.Internal > rt.Internal+1e-9 {
			t.Fatalf("%s: DBCH internal nodes %.2f > R-tree %.2f", m, db.Internal, rt.Internal)
		}
	}
	out := FormatIndex(rows)
	if !strings.Contains(out, TreeDBCH) {
		t.Fatal("FormatIndex missing content")
	}
}

// Regression: K values larger than the dataset must clamp, not panic
// (the paper's K=64 exceeds small collections).
func TestIndexExperimentKLargerThanDataset(t *testing.T) {
	opt := tinyOptions(t)
	opt.Datasets = opt.Datasets[:1]
	opt.Cfg = ucr.Config{Length: 64, Count: 10, Queries: 1}
	opt.Ks = []int{4, 64}
	rows, _, err := IndexExperiment(opt, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Accuracy < 0 || r.Accuracy > 1 {
			t.Fatalf("%s/%s accuracy %v", r.Method, r.Tree, r.Accuracy)
		}
	}
}

func TestWorkedExample(t *testing.T) {
	rows, err := WorkedExample()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	get := func(name string) WorkedRow {
		for _, r := range rows {
			if r.Label == name {
				return r
			}
		}
		t.Fatalf("row %s missing", name)
		return WorkedRow{}
	}
	sapla, apla := get("SAPLA"), get("APLA")
	apca, pla := get("APCA"), get("PLA")
	// Figure 1's shape: adaptive linear (N=4) beats APCA and PLA (N=6) on
	// the sum of segment max deviations.
	if sapla.Segments != 4 || apla.Segments != 4 || apca.Segments != 6 || pla.Segments != 6 {
		t.Fatalf("segment counts: %+v", rows)
	}
	if apla.SumSegMaxDev >= apca.SumSegMaxDev || apla.SumSegMaxDev >= pla.SumSegMaxDev {
		t.Fatalf("APLA %v should beat APCA %v and PLA %v",
			apla.SumSegMaxDev, apca.SumSegMaxDev, pla.SumSegMaxDev)
	}
	// SAPLA approximates APLA's segmentation greedily: it beats PLA on the
	// sum metric and beats APLA and PLA on the whole-series max deviation.
	if sapla.SumSegMaxDev >= pla.SumSegMaxDev {
		t.Fatalf("SAPLA %v should beat PLA %v on the sum metric",
			sapla.SumSegMaxDev, pla.SumSegMaxDev)
	}
	if sapla.MaxDev >= apla.MaxDev || sapla.MaxDev >= pla.MaxDev {
		t.Fatalf("SAPLA max dev %v should beat APLA %v and PLA %v",
			sapla.MaxDev, apla.MaxDev, pla.MaxDev)
	}
	if s := FormatWorked(rows); !strings.Contains(s, "SAPLA") {
		t.Fatal("FormatWorked missing content")
	}
}

func TestWorkedStages(t *testing.T) {
	rows, err := WorkedStages()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Figures 6→8: endpoint movement must not worsen max deviation.
	if rows[2].MaxDev > rows[1].MaxDev+1e-9 {
		t.Fatalf("stage 3 (%v) worse than stage 2 (%v)", rows[2].MaxDev, rows[1].MaxDev)
	}
	if rows[1].Segments != 4 || rows[2].Segments != 4 {
		t.Fatalf("stages should end at N=4: %+v", rows)
	}
}

func TestTightnessExperiment(t *testing.T) {
	opt := tinyOptions(t)
	rows, err := TightnessExperiment(opt, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]TightnessRow{}
	for _, r := range rows {
		byName[r.Measure] = r
		if r.Pairs == 0 {
			t.Fatalf("%s: no pairs", r.Measure)
		}
	}
	lb, par, ae := byName["LB"], byName["PAR"], byName["AE"]
	// Figure 10's shape: LB ≤ PAR ≤ AE in tightness; LB never violates.
	if !(lb.Tightness <= par.Tightness && par.Tightness <= ae.Tightness) {
		t.Fatalf("tightness ordering broken: LB=%v PAR=%v AE=%v",
			lb.Tightness, par.Tightness, ae.Tightness)
	}
	if lb.Violations != 0 {
		t.Fatalf("Dist_LB violated the lower bound %d times", lb.Violations)
	}
	// Dist_PAR's lower bound is proved under the paper's segmentation
	// alignment assumptions; for near-identical series with differing
	// segmentations small overshoots occur (this is what caps accuracy
	// below 1 in Figure 13). They must stay rare.
	if par.Violations > par.Pairs/10 {
		t.Fatalf("Dist_PAR violations too frequent: %d/%d", par.Violations, par.Pairs)
	}
	if s := FormatTightness(rows); !strings.Contains(s, "Dist_PAR") {
		t.Fatal("FormatTightness missing content")
	}
}

func TestScalingExperiment(t *testing.T) {
	rows, err := ScalingExperiment([]int{64, 128}, 12, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 { // 8 methods × 2 lengths
		t.Fatalf("got %d rows", len(rows))
	}
	if s := FormatScaling(rows); !strings.Contains(s, "Time/series") {
		t.Fatal("FormatScaling missing content")
	}
}

func TestFullOptionsShape(t *testing.T) {
	o := FullOptions()
	if len(o.Datasets) != 117 {
		t.Fatalf("full options cover %d datasets", len(o.Datasets))
	}
	if o.Cfg.Length != 1024 || o.Cfg.Count != 100 || o.Cfg.Queries != 5 {
		t.Fatalf("full scale config %+v", o.Cfg)
	}
	if len(o.Ms) != 3 || len(o.Ks) != 5 {
		t.Fatalf("full parameters %+v", o)
	}
	for _, m := range o.Methods() {
		if m.Name() == "APLA" {
			return
		}
	}
	t.Fatal("APLA missing from methods")
}

func TestMethodNames(t *testing.T) {
	names := DefaultOptions().MethodNames()
	want := []string{"SAPLA", "APLA", "APCA", "PLA", "PAA", "PAALM", "CHEBY", "SAX"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v", names)
		}
	}
}

func TestClassificationExperiment(t *testing.T) {
	opt := tinyOptions(t)
	opt.Cfg = ucr.Config{Length: 64, Count: 24, Queries: 4}
	row, err := ClassificationExperiment(opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if row.K != 1 || row.Datasets != 3 {
		t.Fatalf("row %+v, want k 1 over 3 datasets", row)
	}
	if row.Accuracy < 0 || row.Accuracy > 1 || row.MeanRho <= 0 || row.MeanRho > 1 {
		t.Fatalf("row %+v", row)
	}
	if s := FormatClassification(row); !strings.Contains(s, "Accuracy") {
		t.Fatal("FormatClassification missing content")
	}
	var buf bytes.Buffer
	if err := WriteClassificationCSV(&buf, row); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mean_rho") {
		t.Fatal("CSV missing header")
	}
}

func TestReductionByDataset(t *testing.T) {
	opt := tinyOptions(t)
	_, rows, err := ReductionExperiment(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*8 { // 3 datasets × 8 methods
		t.Fatalf("got %d rows", len(rows))
	}
	// Sorted by dataset then method order.
	if rows[0].Dataset > rows[len(rows)-1].Dataset {
		t.Fatal("rows not sorted by dataset")
	}
	if rows[0].Method != "SAPLA" {
		t.Fatalf("first method = %s", rows[0].Method)
	}
	for _, r := range rows {
		if r.MaxDev <= 0 || r.Time <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
	if s := FormatDatasetRows(rows); !strings.Contains(s, "Dataset") {
		t.Fatal("FormatDatasetRows missing content")
	}
	var buf bytes.Buffer
	if err := WriteDatasetCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dataset,method") {
		t.Fatal("CSV header missing")
	}
}

func TestAsciiPlot(t *testing.T) {
	rep, err := DefaultOptions().Methods()[0].Reduce(PaperSeries, 12)
	if err != nil {
		t.Fatal(err)
	}
	out := AsciiPlot(PaperSeries, rep, 10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 11 { // 10 grid rows + axis
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.ContainsAny(out, "ox*") {
		t.Fatal("plot contains no points")
	}
	// Degenerate heights fall back.
	if AsciiPlot(PaperSeries, rep, 1) == "" {
		t.Fatal("tiny height produced nothing")
	}
	// Constant series does not divide by zero.
	flat := make(ts.Series, 10)
	frep, err := DefaultOptions().Methods()[4].Reduce(flat, 5) // PAA
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(AsciiPlot(flat, frep, 6), "*") {
		t.Fatal("flat plot missing coincident points")
	}
}

func TestPlotWorkedExample(t *testing.T) {
	out, err := PlotWorkedExample(12)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"SAPLA", "APLA", "APCA", "PLA"} {
		if !strings.Contains(out, name) {
			t.Fatalf("panel %s missing", name)
		}
	}
}

func TestIndexByK(t *testing.T) {
	opt := tinyOptions(t)
	opt.Datasets = opt.Datasets[:2]
	opt.Ks = []int{2, 8}
	_, rows, err := IndexExperiment(opt, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8*2*2 { // methods × trees × K values
		t.Fatalf("got %d rows", len(rows))
	}
	// Pruning power grows (weakly) with K: measuring more neighbours means
	// touching more of the collection.
	byKey := map[string]map[int]float64{}
	for _, r := range rows {
		key := r.Method + "/" + r.Tree
		if byKey[key] == nil {
			byKey[key] = map[int]float64{}
		}
		byKey[key][r.K] = r.PruningPower
		if r.Accuracy < 0 || r.Accuracy > 1 {
			t.Fatalf("%s: accuracy %v", key, r.Accuracy)
		}
	}
	for key, m := range byKey {
		if m[8] < m[2]-1e-9 {
			t.Fatalf("%s: ρ(K=8)=%v < ρ(K=2)=%v", key, m[8], m[2])
		}
	}
	if s := FormatKRows(rows); !strings.Contains(s, "Pruning") {
		t.Fatal("FormatKRows missing content")
	}
	var buf bytes.Buffer
	if err := WriteKCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pruning_power") {
		t.Fatal("CSV header missing")
	}
}

// relClose reports whether got is within 1e-12 of want, relative.
func relClose(got, want float64) bool {
	return math.Abs(got-want) <= 1e-12*math.Max(math.Abs(want), 1e-300)
}

// TestFoldedTablesAgree: the K sweep and the per-dataset breakdown are folds
// of the same slots as Figures 13–16 and Figure 12, so weighting them back
// together must give the aggregate rows.
func TestFoldedTablesAgree(t *testing.T) {
	opt := detOptions(t, 2)
	opt.Ms = []int{6, 12}

	rows, kRows, err := IndexExperiment(opt, 12)
	if err != nil {
		t.Fatal(err)
	}
	type sum struct{ rho, acc, queries float64 }
	byTree := map[string]*sum{}
	for _, k := range kRows {
		key := k.Method + "/" + k.Tree
		if byTree[key] == nil {
			byTree[key] = &sum{}
		}
		s, w := byTree[key], float64(k.Queries)
		s.rho += w * k.PruningPower
		s.acc += w * k.Accuracy
		s.queries += w
	}
	for _, r := range rows {
		if r.Tree == TreeLinear {
			continue
		}
		s := byTree[r.Method+"/"+r.Tree]
		if s == nil || s.queries != float64(r.Queries) {
			t.Fatalf("%s/%s: K sweep covers %+v queries, want %d", r.Method, r.Tree, s, r.Queries)
		}
		if !relClose(s.rho/s.queries, r.PruningPower) || !relClose(s.acc/s.queries, r.Accuracy) {
			t.Fatalf("%s/%s: K sweep folds to ρ %v accuracy %v, row has %v %v",
				r.Method, r.Tree, s.rho/s.queries, s.acc/s.queries, r.PruningPower, r.Accuracy)
		}
	}

	red, dRows, err := ReductionExperiment(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(dRows) != len(opt.Datasets)*len(red) {
		t.Fatalf("%d per-dataset rows for %d datasets × %d cells", len(dRows), len(opt.Datasets), len(red))
	}
	for _, r := range red {
		var dev, segDev, series float64
		for _, d := range dRows {
			if d.Method == r.Method && d.M == r.M {
				w := float64(opt.Cfg.Count) // every synthetic dataset holds Count series
				dev += w * d.MaxDev
				segDev += w * d.SumSegMaxDev
				series += w
			}
		}
		if series != float64(r.Series) {
			t.Fatalf("%s M=%d: per-dataset rows cover %v series, want %d", r.Method, r.M, series, r.Series)
		}
		if !relClose(dev/series, r.MaxDev) || !relClose(segDev/series, r.SumSegMaxDev) {
			t.Fatalf("%s M=%d: per-dataset rows fold to %v %v, row has %v %v",
				r.Method, r.M, dev/series, segDev/series, r.MaxDev, r.SumSegMaxDev)
		}
	}
}
