package eval

import (
	"fmt"
	"strings"
	"text/tabwriter"
)

// table renders rows through a tabwriter.
func table(write func(w *tabwriter.Writer)) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	write(w)
	_ = w.Flush() // flushing into a strings.Builder cannot fail
	return sb.String()
}

// FormatReduction renders Figure 12's rows.
func FormatReduction(rows []ReductionRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Method\tM\tMaxDev\tSumSegMaxDev\tTime/series")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%d\t%.4f\t%.4f\t%v\n",
				r.Method, r.M, r.MaxDev, r.SumSegMaxDev, r.Time)
		}
	})
}

// FormatIndex renders Figures 13–16's rows.
func FormatIndex(rows []IndexRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Method\tTree\tPruning ρ\tAccuracy\tReduce\tBuild\tkNN/query\tInternal\tLeaf\tHeight")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%.4f\t%.4f\t%v\t%v\t%v\t%.1f\t%.1f\t%.1f\n",
				r.Method, r.Tree, r.PruningPower, r.Accuracy, r.ReduceTime, r.IngestTime,
				r.KNNTime, r.Internal, r.Leaf, r.Height)
		}
	})
}

// FormatWorked renders the worked-example rows (Figures 1, 5, 6, 8).
func FormatWorked(rows []WorkedRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Panel\tN\tMaxDev\tSumSegMaxDev\tEndpoints")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%d\t%.4f\t%.4f\t%v\n",
				r.Label, r.Segments, r.MaxDev, r.SumSegMaxDev, r.Endpoints)
		}
	})
}

// FormatTightness renders Figure 10's rows.
func FormatTightness(rows []TightnessRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Measure\tMean\tTightness\tLB violations\tPairs")
		for _, r := range rows {
			fmt.Fprintf(w, "Dist_%s\t%.4f\t%.4f\t%d\t%d\n",
				r.Measure, r.Mean, r.Tightness, r.Violations, r.Pairs)
		}
	})
}

// FormatScaling renders the Table 1 verification rows.
func FormatScaling(rows []ScalingRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Method\tn\tTime/series")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%d\t%v\n", r.Method, r.N, r.Time)
		}
	})
}

// FormatClassification renders the classification-application row.
func FormatClassification(r ClassificationRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "k\tAccuracy\tMean ρ\tDatasets")
		fmt.Fprintf(w, "%d\t%.4f\t%.4f\t%d\n", r.K, r.Accuracy, r.MeanRho, r.Datasets)
	})
}

// FormatDatasetRows renders the per-dataset breakdown.
func FormatDatasetRows(rows []DatasetRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Dataset\tMethod\tM\tMaxDev\tSumSegMaxDev\tTime/series")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%d\t%.4f\t%.4f\t%v\n",
				r.Dataset, r.Method, r.M, r.MaxDev, r.SumSegMaxDev, r.Time)
		}
	})
}

// FormatKRows renders the K-sweep rows.
func FormatKRows(rows []KRow) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, "Method\tTree\tK\tPruning ρ\tAccuracy")
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%s\t%d\t%.4f\t%.4f\n",
				r.Method, r.Tree, r.K, r.PruningPower, r.Accuracy)
		}
	})
}
