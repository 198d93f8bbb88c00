package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// report is the file a run writes (-out-dir/report.json) and -compare
// reads.
type report struct {
	Environment environment      `json:"environment"`
	Workloads   []workloadReport `json:"workloads"`
}

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareReports prints every end-to-end metric of every workload the two
// reports share, b against a, and returns how many findings there were:
// a metric of b worse than a's by more than its bound, a higher failure
// share, or an exact counter that differs on a workload without
// timer-driven traffic.
func compareReports(out io.Writer, a, b report) int {
	findings := 0
	byName := map[string]workloadReport{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	fmt.Fprintf(out, "%-15s %-16s %12s %12s %8s %6s\n", "workload", "metric", "a", "b", "delta", "bound")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		for _, d := range endToEndDefs {
			va, vb := wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value
			delta := 0.0
			if va != 0 {
				delta = (vb - va) / va
			}
			worse := delta
			if d.Better == higher {
				worse = -delta
			}
			mark := ""
			if worse > d.Bound {
				mark = "  BREACH"
				findings++
			}
			fmt.Fprintf(out, "%-15s %-16s %12.4f %12.4f %+7.1f%% %5.0f%%%s\n",
				wa.Name, d.Name, va, vb, 100*delta, 100*d.Bound, mark)
		}
		sa, sb := failShare(wa), failShare(wb)
		mark := ""
		if sb > sa {
			mark = "  BREACH (any increase)"
			findings++
		}
		fmt.Fprintf(out, "%-15s %-16s %12.6f %12.6f%s\n", wa.Name, "fail_share", sa, sb, mark)
		if !wa.ExactCounts || wa.PerLayer == nil || wb.PerLayer == nil {
			continue
		}
		for _, name := range exactCounters {
			va, vb := wa.PerLayer[name].Value, wb.PerLayer[name].Value
			if math.Abs(va-vb) > 1e-9 {
				fmt.Fprintf(out, "%-15s %-30s %g != %g  DIFFERS (exact counter)\n", wa.Name, name, va, vb)
				findings++
			}
		}
	}
	return findings
}

func failShare(w workloadReport) float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}
