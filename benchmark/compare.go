package main

import (
	"fmt"
	"io"
	"strings"
)

// verdict is what -compare says about one (workload, metric) pair.
type verdict string

const (
	within     verdict = "within"     // b is no worse than a by more than the bound
	regression verdict = "REGRESSION" // b is worse than a by more than the bound
	unresolved verdict = "unresolved" // a side is missing, invalid, or has too few samples
)

// failShareBound is the absolute rise in fail_share that counts as a
// regression.
const failShareBound = 0.001

type compareRow struct {
	workload, metric string
	a, b             float64
	unit             string
	worse            float64 // share of a by which b is worse; negative = better
	bound            float64
	verdict          verdict
	note             string
}

// minSamples is how many samples a metric needs behind it on both sides
// before a comparison means anything.
func minSamples(name string) int {
	if strings.Contains(name, "_p50_") {
		return minTail*2 + 1 // ten samples on each side of the median
	}
	return 1
}

// compareResults judges every end-to-end metric of every workload in a
// against the same one in b, plus fail_share.
func compareResults(a, b *resultFile) []compareRow {
	byName := map[string]*workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	var rows []compareRow
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		for _, spec := range endToEnd {
			row := compareRow{workload: wa.Name, metric: spec.name, unit: spec.unit, bound: spec.bound, verdict: unresolved}
			switch {
			case wb == nil:
				row.note = "workload missing from the second file"
			case !wa.Valid || !wb.Valid:
				row.note = "a run is marked invalid"
			default:
				ma, oka := wa.Metrics[spec.name]
				mb, okb := wb.Metrics[spec.name]
				row.a, row.b = ma.Value, mb.Value
				switch {
				case !oka || !okb:
					row.note = "metric missing"
				case ma.N < minSamples(spec.name) || mb.N < minSamples(spec.name):
					row.note = fmt.Sprintf("n=%d/%d, need %d", ma.N, mb.N, minSamples(spec.name))
				case ma.Value <= 0:
					row.note = "baseline is not positive"
				default:
					row.worse = (mb.Value - ma.Value) / ma.Value
					if spec.better == "higher" {
						row.worse = -row.worse
					}
					row.verdict = within
					if row.worse > spec.bound {
						row.verdict = regression
					}
				}
			}
			rows = append(rows, row)
		}
		row := compareRow{workload: wa.Name, metric: "fail_share", unit: "ratio", bound: failShareBound, verdict: unresolved}
		if wb == nil {
			row.note = "workload missing from the second file"
		} else {
			row.a, row.b = wa.FailShare, wb.FailShare
			row.worse = wb.FailShare - wa.FailShare // absolute, not a share of a
			row.verdict = within
			if row.worse > failShareBound {
				row.verdict = regression
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// compareFiles prints one row per (workload, metric) and returns the exit
// code: 0 when everything is within its bound, 1 otherwise.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResultFile(pathA)
	if err == nil && a.Header.Trace {
		err = fmt.Errorf("benchmark: %s is a traced run; end-to-end numbers come from untraced runs", pathA)
	}
	var b *resultFile
	if err == nil {
		b, err = readResultFile(pathB)
	}
	if err == nil && b.Header.Trace {
		err = fmt.Errorf("benchmark: %s is a traced run; end-to-end numbers come from untraced runs", pathB)
	}
	if err != nil {
		fmt.Fprintln(w, err)
		return 1
	}
	fmt.Fprintf(w, "a: %s  commit %.12s dirty=%v seed %d window %.0fs\n", pathA, a.Header.Commit, a.Header.Dirty, a.Header.Seed, a.Header.WindowSeconds)
	fmt.Fprintf(w, "b: %s  commit %.12s dirty=%v seed %d window %.0fs\n", pathB, b.Header.Commit, b.Header.Dirty, b.Header.Seed, b.Header.WindowSeconds)
	fmt.Fprintf(w, "%-22s %-16s %12s %12s %-6s %9s %7s  %s\n", "workload", "metric", "a", "b", "unit", "worse by", "bound", "verdict")
	bad := 0
	for _, r := range compareResults(a, b) {
		worse := fmt.Sprintf("%+.1f%%", 100*r.worse)
		if r.metric == "fail_share" {
			worse = fmt.Sprintf("%+.4f", r.worse)
		}
		line := fmt.Sprintf("%-22s %-16s %12.4f %12.4f %-6s %9s %7.3f  %s", r.workload, r.metric, r.a, r.b, r.unit, worse, r.bound, r.verdict)
		if r.note != "" {
			line += " (" + r.note + ")"
		}
		fmt.Fprintln(w, line)
		if r.verdict != within {
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d rows outside their bound or unresolved\n", bad)
		return 1
	}
	fmt.Fprintln(w, "every end-to-end metric is within its bound")
	return 0
}
