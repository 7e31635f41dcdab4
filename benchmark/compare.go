package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func loadSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values collects one metric of one workload over a set's runs.
func (s *runSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}

// verdict compares set A (the parent) with set B (the change) on one metric.
// worse is B's median against A's as a share of A's, positive when B is
// worse in the metric's own direction.
//
//	regressed   worse exceeds the bound
//	unresolved  either set's own spread (IQR over median) exceeds the bound,
//	            unless every run of B reads better than every run of A
//	ok          otherwise
func verdict(a, b []float64, better string, bound float64) (worse float64, v string) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / ma
	lo, hi := percentile(b, 100), percentile(a, 0) // B's worst, A's best, if lower is better
	if better == "higher" {
		worse = -worse
		lo, hi = percentile(a, 100), percentile(b, 0)
	}
	switch {
	case lo < hi:
		return worse, "ok" // every run of B beats every run of A
	case relIQR(a) > bound || relIQR(b) > bound:
		return worse, "unresolved"
	case worse > bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareSets prints, per workload and end-to-end metric, both medians, the
// change, the bound and the verdict. It fails when anything regressed.
func compareSets(bf *benchmarkFile, pathA, pathB string) error {
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("A = %s (%s, %s cpu)\nB = %s (%s, %s cpu)\n", pathA, a.Host["revision"], a.Host["num_cpu"], pathB, b.Host["revision"], b.Host["num_cpu"])
	fmt.Printf("%-14s %-12s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "worse", "iqr A", "iqr B", "bound", "verdict")
	regressed := 0
	for _, w := range workloadNames {
		for _, d := range bf.EndToEnd {
			va, vb := a.values(w, d.Name), b.values(w, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worse, v := verdict(va, vb, d.Better, d.Bound)
			if v == "regressed" {
				regressed++
			}
			fmt.Printf("%-14s %-12s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s (n=%d,%d %s)\n",
				w, d.Name, median(va), median(vb), worse*100, relIQR(va)*100, relIQR(vb)*100, d.Bound*100, v, len(va), len(vb), d.Unit)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d workload x metric pairs regressed", regressed)
	}
	return nil
}
