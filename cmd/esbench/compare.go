package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// benchmarkDef is the part of BENCHMARK.json the harness reads.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// minCompareRuns is the fewest runs per side whose quartiles mean
// anything; below it every row is unresolved.
const minCompareRuns = 4

// verdict applies one end-to-end bound to two sides' per-run values.
// worse is B's median relative to A's, positive when B is worse. When
// either side's own interquartile spread exceeds the bound the data
// cannot tell a change of that size from noise, and the row is
// unresolved, not unchanged.
func verdict(d metricDef, a, b []float64) (verdict string, worse, spreadA, spreadB float64) {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	if len(a) < minCompareRuns || len(b) < minCompareRuns || ma == 0 || mb == 0 {
		return "unresolved", 0, 0, 0
	}
	spreadA, spreadB = (q3a-q1a)/ma, (q3b-q1b)/mb
	worse = (mb - ma) / ma
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case max(spreadA, spreadB) > d.Bound:
		verdict = "unresolved"
	case worse > d.Bound:
		verdict = "REGRESSED"
	case worse < -d.Bound:
		verdict = "improved"
	default:
		verdict = "unchanged"
	}
	return verdict, worse, spreadA, spreadB
}

// compareFiles prints one row per (end-to-end metric, workload) and one
// per workload for the failed share, which must not rise. The exit code
// is 1 when any row regressed.
func compareFiles(w io.Writer, benchPath, pathA, pathB string) (int, error) {
	var def benchmarkDef
	var a, b runSet
	if err := errors.Join(readJSON(benchPath, &def), readJSON(pathA, &a), readJSON(pathB, &b)); err != nil {
		return 1, err
	}
	fmt.Fprintf(w, "A: %s  %+v\nB: %s  %+v\n", pathA, a.Fingerprint, pathB, b.Fingerprint)
	fmt.Fprintf(w, "%-20s %-14s %5s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "unit", "median A", "median B", "worse", "spreadA", "spreadB", "bound", "verdict")
	code := 0
	for _, wl := range def.Workloads {
		for _, d := range def.EndToEnd {
			va, vb := a.Values[wl.Name][d.Name], b.Values[wl.Name][d.Name]
			v, worse, sa, sb := verdict(d, va, vb)
			if v == "REGRESSED" {
				code = 1
			}
			fmt.Fprintf(w, "%-20s %-14s %5s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.Name, d.Name, d.Unit, median(va), median(vb), 100*worse, 100*sa, 100*sb, 100*d.Bound, v)
		}
		fa := float64(a.Failed[wl.Name]) / float64(max(a.Attempted[wl.Name], 1))
		fb := float64(b.Failed[wl.Name]) / float64(max(b.Attempted[wl.Name], 1))
		v := "unchanged"
		if fb > fa {
			v, code = "REGRESSED", 1
		}
		fmt.Fprintf(w, "%-20s %-14s %5s %14.6g %14.6g %8s %8s %8s %6s  %s\n",
			wl.Name, "failed_share", "ratio", fa, fb, "", "", "", "0%", v)
	}
	return code, nil
}
