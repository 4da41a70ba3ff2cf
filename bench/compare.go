package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// benchSpec is the part of BENCHMARK.json -compare reads: each end-to-end
// metric's direction and regression bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// exactMetrics are deterministic for a given seed: two runs of one seed must
// agree on them exactly, whatever BENCHMARK.json's bound (which has to cover
// the spread across seeds).
var exactMetrics = map[string]bool{
	"sim_cycles_per_inst":   true,
	"speedup_vs_rank_local": true,
	"error_rate":            true,
}

// loadSpec reads BENCHMARK.json from path, or when path is empty from the
// current directory or its parent (the repository root, seen from bench/).
func loadSpec(path string) (*benchSpec, error) {
	paths := []string{path}
	if path == "" {
		paths = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var errs []error
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		var sp benchSpec
		if err := json.Unmarshal(b, &sp); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &sp, nil
	}
	return nil, errors.Join(errs...)
}

// readResults reads the untraced results of a file written by -out.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// compareFiles prints one row per (workload, metric) comparing the runs in
// result file b against those in a, and returns the exit code: 1 when any
// metric is worse or an exact metric or output digest differs.
func compareFiles(a, b, specPath string, w io.Writer) (int, error) {
	sp, err := loadSpec(specPath)
	if err != nil {
		return 0, err
	}
	ra, err := readResults(a)
	if err != nil {
		return 0, err
	}
	rb, err := readResults(b)
	if err != nil {
		return 0, err
	}
	code := 0
	fmt.Fprintf(w, "%-14s %-22s %14s %7s %14s %7s %8s %6s  %s\n",
		"workload", "metric", "A median", "A iqr", "B median", "B iqr", "change", "bound", "verdict")
	for _, sp0 := range specs {
		wa, wb := byWorkload(ra, sp0.name), byWorkload(rb, sp0.name)
		if len(wa) == 0 || len(wb) == 0 {
			continue
		}
		for _, m := range sp.EndToEnd {
			v := verdict(m.Name, m.Better, m.Bound, wa, wb)
			code = max(code, v.code())
			fmt.Fprintf(w, "%-14s %-22s %14.6g %6.2f%% %14.6g %6.2f%% %+7.2f%% %5.0f%%  %s\n",
				sp0.name, m.Name, v.medA, 100*v.spreadA, v.medB, 100*v.spreadB, 100*v.change, 100*m.Bound, v.word)
		}
		v := verdict("error_rate", "lower", 0, wa, wb)
		code = max(code, v.code())
		fmt.Fprintf(w, "%-14s %-22s %14.6g %7s %14.6g %7s %8s %6s  %s\n",
			sp0.name, "error_rate", v.medA, "", v.medB, "", "", "exact", v.word)
		d := digestVerdict(wa, wb)
		if d != "ok" {
			code = 1
		}
		fmt.Fprintf(w, "%-14s %-22s %14s %7s %14s %7s %8s %6s  %s\n",
			sp0.name, "output digest", "", "", "", "", "", "exact", d)
	}
	return code, nil
}

func byWorkload(rs []result, name string) []result {
	var out []result
	for _, r := range rs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

type comparison struct {
	medA, medB, spreadA, spreadB, change float64
	word                                 string
}

func (c comparison) code() int {
	if c.word == "worse" || c.word == "differs" {
		return 1
	}
	return 0
}

// verdict compares one metric between two sets of runs. The change is
// signed so that positive is worse. Where the spread of either set exceeds
// the bound the answer is unresolved, unless every run of B beats every run
// of A. Exact metrics are compared seed by seed instead.
func verdict(name, better string, bound float64, a, b []result) comparison {
	va, vb := values(a, name), values(b, name)
	c := comparison{medA: median(va), medB: median(vb), spreadA: spread(va), spreadB: spread(vb)}
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	if c.medA != 0 {
		c.change = sign * (c.medB - c.medA) / math.Abs(c.medA)
	}
	if exactMetrics[name] {
		c.word = "ok"
		for _, ra := range a {
			for _, rb := range b {
				if ra.Seed == rb.Seed && ra.Metrics[name].Value != rb.Metrics[name].Value {
					c.word = "differs"
				}
			}
		}
		return c
	}
	allBetter := slices.Max(vb) < slices.Min(va)
	if better == "higher" {
		allBetter = slices.Min(vb) > slices.Max(va)
	}
	switch {
	case max(c.spreadA, c.spreadB) > bound && allBetter:
		c.word = "better"
	case max(c.spreadA, c.spreadB) > bound:
		c.word = "unresolved"
	case c.change > bound:
		c.word = "worse"
	case c.change < -bound:
		c.word = "better"
	default:
		c.word = "ok"
	}
	return c
}

func values(rs []result, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.Metrics[name].Value)
	}
	return out
}

// digestVerdict reports whether runs of the same seed produced the same
// output digest in both sets.
func digestVerdict(a, b []result) string {
	shared := 0
	for _, ra := range a {
		for _, rb := range b {
			if ra.Seed == rb.Seed {
				if ra.Digest != rb.Digest {
					return "differs"
				}
				shared++
			}
		}
	}
	if shared == 0 {
		return "no shared seed"
	}
	return "ok"
}
