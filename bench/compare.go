package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchManifest is the part of BENCHMARK.json the harness reads.
type benchManifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// readJSON decodes the file at path into a new T.
func readJSON[T any](path string) (*T, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	v := new(T)
	if err := json.Unmarshal(body, v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

// values collects one end-to-end metric's values over a set's
// untraced runs of one workload.
func (s *runSet) values(workload, name string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload == workload && !r.Traced {
			if m, ok := r.EndToEnd[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// verdict compares set b against set a for one metric: "worse" or
// "better" when the medians differ by more than the bound in that
// direction, "unresolved" when either set's own quartile spread is
// wider than the bound (the sets cannot tell), otherwise "unchanged".
func verdict(a, b []float64, better string, bound float64) (medA, medB, spr float64, v string) {
	medA = median(append([]float64(nil), a...))
	medB = median(append([]float64(nil), b...))
	spr = math.Max(spread(a), spread(b))
	if medA == 0 {
		return medA, medB, spr, "unresolved"
	}
	worse := (medB - medA) / math.Abs(medA) // positive = b is worse
	if better == "higher" {
		worse = -worse
	}
	switch {
	case spr > bound:
		v = "unresolved"
	case worse > bound:
		v = "worse"
	case worse < -bound:
		v = "better"
	default:
		v = "unchanged"
	}
	return medA, medB, spr, v
}

// compareSets prints, per workload and end-to-end metric, both medians,
// the quartile spread and the verdict, and returns the exit code: 1 on
// any "worse", or when either set holds a failed run.
func compareSets(pathA, pathB, manifestPath string, w io.Writer) int {
	man, err := readJSON[benchManifest](manifestPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := readJSON[runSet](pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readJSON[runSet](pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	for _, s := range []*runSet{a, b} {
		for _, r := range s.Runs {
			if !r.Correct {
				fmt.Fprintf(w, "%s seed %d: a run failed its output check (%d of %d operations)\n", r.Workload, r.Seed, r.Failed, r.Attempted)
				code = 1
			}
		}
	}
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %8s %6s  %s\n", "workload", "metric", "median a", "median b", "spread", "bound", "verdict")
	for _, wl := range man.Workloads {
		for _, m := range man.EndToEnd {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-16s %-18s missing from a set\n", wl.Name, m.Name)
				code = 1
				continue
			}
			medA, medB, spr, v := verdict(va, vb, m.Better, m.Bound)
			fmt.Fprintf(w, "%-16s %-18s %14.4f %14.4f %7.1f%% %5.0f%%  %s\n", wl.Name, m.Name, medA, medB, 100*spr, 100*m.Bound, v)
			if v == "worse" {
				code = 1
			}
		}
	}
	return code
}
