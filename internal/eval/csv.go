package eval

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// writeCSV emits a header and rows through encoding/csv.
func writeCSV(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	if err := cw.WriteAll(rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }

// WriteReductionCSV exports Figure 12 rows.
func WriteReductionCSV(w io.Writer, rows []ReductionRow) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Method, strconv.Itoa(r.M), f(r.MaxDev), f(r.SumSegMaxDev),
			strconv.FormatInt(r.Time.Nanoseconds(), 10), strconv.Itoa(r.Series)}
	}
	return writeCSV(w, []string{"method", "m", "max_dev", "sum_seg_max_dev", "time_ns", "series"}, out)
}

// WriteIndexCSV exports Figures 13–16 rows.
func WriteIndexCSV(w io.Writer, rows []IndexRow) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Method, r.Tree, f(r.PruningPower), f(r.Accuracy),
			strconv.FormatInt(r.ReduceTime.Nanoseconds(), 10),
			strconv.FormatInt(r.IngestTime.Nanoseconds(), 10),
			strconv.FormatInt(r.KNNTime.Nanoseconds(), 10),
			f(r.Internal), f(r.Leaf), f(r.Height), strconv.Itoa(r.Queries)}
	}
	return writeCSV(w, []string{"method", "tree", "pruning_power", "accuracy",
		"reduce_ns", "build_ns", "knn_ns", "internal_nodes", "leaf_nodes", "height", "queries"}, out)
}

// WriteWorkedCSV exports Figure 1 / Figures 5-8 rows.
func WriteWorkedCSV(w io.Writer, rows []WorkedRow) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Label, strconv.Itoa(r.Segments), f(r.MaxDev),
			f(r.SumSegMaxDev), fmt.Sprint(r.Endpoints)}
	}
	return writeCSV(w, []string{"panel", "segments", "max_dev", "sum_seg_max_dev", "endpoints"}, out)
}

// WriteTightnessCSV exports Figure 10 rows.
func WriteTightnessCSV(w io.Writer, rows []TightnessRow) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Measure, f(r.Mean), f(r.Tightness),
			strconv.Itoa(r.Violations), strconv.Itoa(r.Pairs)}
	}
	return writeCSV(w, []string{"measure", "mean", "tightness", "violations", "pairs"}, out)
}

// WriteScalingCSV exports Table 1 verification rows.
func WriteScalingCSV(w io.Writer, rows []ScalingRow) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Method, strconv.Itoa(r.N),
			strconv.FormatInt(r.Time.Nanoseconds(), 10)}
	}
	return writeCSV(w, []string{"method", "n", "time_ns"}, out)
}

// WriteClassificationCSV exports the classification-application row.
func WriteClassificationCSV(w io.Writer, r ClassificationRow) error {
	return writeCSV(w, []string{"k", "accuracy", "mean_rho", "datasets"}, [][]string{{
		strconv.Itoa(r.K), f(r.Accuracy), f(r.MeanRho), strconv.Itoa(r.Datasets)}})
}

// WriteDatasetCSV exports the per-dataset breakdown.
func WriteDatasetCSV(w io.Writer, rows []DatasetRow) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Dataset, r.Method, strconv.Itoa(r.M), f(r.MaxDev),
			f(r.SumSegMaxDev), strconv.FormatInt(r.Time.Nanoseconds(), 10)}
	}
	return writeCSV(w, []string{"dataset", "method", "m", "max_dev",
		"sum_seg_max_dev", "time_ns"}, out)
}

// WriteKCSV exports the K-sweep rows.
func WriteKCSV(w io.Writer, rows []KRow) error {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Method, r.Tree, strconv.Itoa(r.K), f(r.PruningPower),
			f(r.Accuracy), strconv.Itoa(r.Queries)}
	}
	return writeCSV(w, []string{"method", "tree", "k", "pruning_power",
		"accuracy", "queries"}, out)
}
