package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// verdict compares one end-to-end metric of one workload between a
// baseline a and a candidate b. worse is the share of a's median by
// which b is worse (negative when better). The row is unresolved, not
// passed or failed, when either file's own spread over its rounds (the
// distance between their quartiles, as a share of the median), or the
// shift of the host calibration between the files, exceeds the bound —
// unless every round of b reads better than every round of a.
func verdict(d metricDef, a, b metricValue, calibShift float64) (worse float64, status string) {
	sign := 1.0
	if d.Better == higher {
		sign = -1
	}
	worse = sign * ratio(b.Value-a.Value, a.Value)
	spread := func(m metricValue) float64 {
		return ratio(quantile(m.Rounds, 0.75)-quantile(m.Rounds, 0.25), m.Value)
	}
	// A slower box moves times and rates, not counts or sizes.
	timed := d.Unit == "s" || d.Unit == "us" || d.Unit == "1/s"
	noisy := spread(a) > d.Bound || spread(b) > d.Bound || (timed && calibShift > d.Bound)
	allBetter := sign*(b.Max-a.Min) < 0 && sign*(b.Min-a.Max) < 0
	switch {
	case noisy && !allBetter:
		return worse, "unresolved"
	case worse > d.Bound:
		return worse, "FAIL"
	}
	return worse, "pass"
}

// checkMain prints one row per (workload, end-to-end metric) of the
// two result files and returns the exit code: non-zero when a row
// fails, the candidate answered wrong, or the campaign's output
// changed.
func checkMain(w io.Writer, pathA, pathB string) int {
	var reps [2]*report
	for i, path := range []string{pathA, pathB} {
		rep, err := readReport(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		reps[i] = rep
	}
	return compare(w, reps[0], reps[1])
}

func compare(w io.Writer, a, b *report) int {
	failed := false
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tMETRIC\tA\tB\tUNIT\tWORSE BY\tBOUND\tVERDICT")
	for _, wb := range b.Workloads {
		var wa *workloadReport
		for i := range a.Workloads {
			if a.Workloads[i].Workload == wb.Workload {
				wa = &a.Workloads[i]
			}
		}
		if wa == nil || wa.EndToEnd == nil || wb.EndToEnd == nil {
			continue
		}
		calibShift := math.Abs(ratio(wb.HostCalibUS.Value-wa.HostCalibUS.Value, wa.HostCalibUS.Value))
		for _, d := range endToEnd {
			worse, status := verdict(d, wa.EndToEnd[d.Name], wb.EndToEnd[d.Name], calibShift)
			failed = failed || status == "FAIL"
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.1f%%\t%.0f%%\t%s\n", wb.Workload, d.Name,
				wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value, d.Unit, 100*worse, 100*d.Bound, status)
		}
		fmt.Fprintf(tw, "%s\thost.calib_us\t%.0f\t%.0f\tus\t%+.1f%%\t\tshift\n", wb.Workload,
			wa.HostCalibUS.Value, wb.HostCalibUS.Value, 100*ratio(wb.HostCalibUS.Value-wa.HostCalibUS.Value, wa.HostCalibUS.Value))
		if !wb.Correct {
			failed = true
			fmt.Fprintf(tw, "%s\tcorrect\t%v\t%v\t\t\t\tFAIL (%d of %d failed)\n", wb.Workload, wa.Correct, wb.Correct, wb.Failed, wb.Attempted)
		}
		if wa.CSVHash != wb.CSVHash {
			failed = true
			fmt.Fprintf(tw, "%s\tcsv_hash\t%.12s\t%.12s\t\t\t\tFAIL (output changed)\n", wb.Workload, wa.CSVHash, wb.CSVHash)
		}
	}
	tw.Flush()
	if failed {
		return 1
	}
	return 0
}
