package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// benchSpec mirrors BENCHMARK.json at the repository root.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadSpec finds BENCHMARK.json from the repository root (where the
// command runs) or from this directory (where the tests run).
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

func loadResults(path string) (map[string]map[string][]float64, map[string][]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	vals := map[string]map[string][]float64{} // workload -> metric -> one value per run
	slices := map[string][]float64{}          // workload -> pooled 1 s slice rates
	for _, r := range f.Runs {
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for n, m := range r.Metrics {
			vals[r.Workload][n] = append(vals[r.Workload][n], m.Value)
		}
		slices[r.Workload] = append(slices[r.Workload], r.SlicePPS...)
	}
	return vals, slices, nil
}

// verdict classifies one (workload, metric) pair. worse is the change in
// the bad direction as a share of the base median; noise is the widest
// run-to-run spread seen on either side (NaN when fewer than four runs a
// side leave it unknown; the change alone then decides).
func verdict(worse, noise, bound float64) string {
	switch {
	case math.IsNaN(worse):
		return "unresolved"
	case noise > bound:
		// The spread is wider than the bound, so neither "same" nor a
		// change of about one bound can be told from noise.
		return "unresolved"
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	default:
		return "same"
	}
}

// compareFiles prints one row per (workload, end-to-end metric): medians
// of both files, the change, the spread, and the verdict under the
// metric's bound from BENCHMARK.json. Per-layer metrics follow without a
// verdict. The exit status is 1 when any row is worse.
func compareFiles(basePath, newPath string) int {
	spec, err := loadSpec()
	if err != nil {
		fatal("BENCHMARK.json: %v", err)
	}
	base, baseSlices, err := loadResults(basePath)
	if err != nil {
		fatal("%v", err)
	}
	cur, curSlices, err := loadResults(newPath)
	if err != nil {
		fatal("%v", err)
	}
	worseRows := 0
	fmt.Printf("%-14s %-22s %14s %14s %9s %9s %7s  %s\n",
		"workload", "metric", "base", "new", "delta", "spread", "bound", "verdict")
	for _, wl := range spec.Workloads {
		b, c := base[wl.Name], cur[wl.Name]
		if b == nil || c == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			bv, cv := b[m.Name], c[m.Name]
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			bm, cm := median(bv), median(cv)
			delta := (cm - bm) / math.Abs(bm)
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			noise := math.NaN()
			switch {
			case len(bv) >= 4 && len(cv) >= 4:
				noise = math.Max(spread(bv), spread(cv))
			case m.Name == "pkt_pps":
				// One run a side: its own 1 s slices are the only
				// spread there is.
				noise = math.Max(spread(baseSlices[wl.Name]), spread(curSlices[wl.Name]))
			}
			v := verdict(worse, noise, *m.Bound)
			if v == "worse" {
				worseRows++
			}
			fmt.Printf("%-14s %-22s %14.4f %14.4f %+8.2f%% %8.2f%% %6.1f%%  %s\n",
				wl.Name, m.Name, bm, cm, 100*delta, 100*noise, 100**m.Bound, v)
		}
	}
	fmt.Println()
	for _, wl := range spec.Workloads {
		b, c := base[wl.Name], cur[wl.Name]
		for _, m := range spec.PerLayer {
			if len(b[m.Name]) == 0 || len(c[m.Name]) == 0 {
				continue
			}
			bm, cm := median(b[m.Name]), median(c[m.Name])
			fmt.Printf("%-14s %-26s %14.4f %14.4f %+8.2f%%  %s\n",
				wl.Name, m.Name, bm, cm, 100*(cm-bm)/math.Abs(bm), m.Unit)
		}
	}
	if worseRows > 0 {
		fmt.Printf("\n%d row(s) worse than their bound\n", worseRows)
		return 1
	}
	return 0
}
