// Command compare sets two sets of benchmark results side by side, a base
// (the parent commit) and a change, and gives a verdict per workload and
// metric. It needs only the standard library.
//
//	cd perfbench && go run ./compare -bench ../BENCHMARK.json -base /path/base -change /path/change
//
// Each of -base and -change is a directory holding <workload>.jsonl: one
// line per run, each the last line perfbench printed. The i-th lines of the
// two files form a pair; alternate which side runs first when making them.
//
// Verdicts follow the repository's measurement rule:
//   - improved: at least ten pairs, the change wins at least nine tenths of
//     them (ties count for neither side), and the medians differ, in the
//     change's favour, by more than the base's interquartile distance;
//   - worse: the change's median is worse than the base's by more than the
//     metric's bound (for a metric without a bound: the mirror of improved);
//   - unresolved: the base's own spread is wider than the bound and not
//     every change run reads better than every base run, or, for a metric
//     without a bound, neither side is shown better;
//   - within bound: otherwise.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type run struct {
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	var (
		benchPath = flag.String("bench", "BENCHMARK.json", "benchmark declaration")
		baseDir   = flag.String("base", "", "directory of the base's <workload>.jsonl files")
		changeDir = flag.String("change", "", "directory of the change's <workload>.jsonl files")
	)
	flag.Parse()
	if *baseDir == "" || *changeDir == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := compare(*benchPath, *baseDir, *changeDir); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
}

func compare(benchPath, baseDir, changeDir string) error {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var b spec
	if err := json.Unmarshal(data, &b); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	metrics := append(append([]metricSpec(nil), b.EndToEnd...), b.PerLayer...)
	fmt.Printf("%-20s %-30s %12s %12s %8s %6s  %s\n", "workload", "metric", "base", "change", "ratio", "won", "verdict")
	for _, w := range b.Workloads {
		base, err := readRuns(filepath.Join(baseDir, w.Name+".jsonl"))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		change, err := readRuns(filepath.Join(changeDir, w.Name+".jsonl"))
		if err != nil {
			return err
		}
		for _, m := range metrics {
			bv, cv := values(base, m.Name), values(change, m.Name)
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			bq, cq := quartiles(bv), quartiles(cv)
			won := wonFraction(bv, cv, m.Better == "higher")
			fmt.Printf("%-20s %-30s %12.5g %12.5g %8.4f %6.2f  %s\n", w.Name, m.Name+" ("+m.Unit+")",
				bq[1], cq[1], cq[1]/bq[1], won, verdict(m, bv, cv))
			fmt.Printf("%-20s %-30s [%.4g, %.4g] [%.4g, %.4g]  n=%d/%d\n", "", "  quartiles", bq[0], bq[2], cq[0], cq[2], len(bv), len(cv))
		}
	}
	return nil
}

func readRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []run
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r run
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

func values(runs []run, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile, by the
// same rule as Python's statistics.quantiles(values, n=4).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// wonFraction is the share of pairs the change wins; ties count for
// neither side.
func wonFraction(base, change []float64, higher bool) float64 {
	n := min(len(base), len(change))
	wins := 0
	for i := 0; i < n; i++ {
		if better(change[i], base[i], higher) {
			wins++
		}
	}
	return float64(wins) / float64(n)
}

func better(a, b float64, higher bool) bool {
	if higher {
		return a > b
	}
	return a < b
}

func verdict(m metricSpec, base, change []float64) string {
	higher := m.Better == "higher"
	bq, cq := quartiles(base), quartiles(change)
	spread := bq[2] - bq[0]
	shown := func(x, y []float64, xq, yq [3]float64) bool {
		return min(len(x), len(y)) >= 10 && wonFraction(y, x, higher) >= 0.9 &&
			better(xq[1], yq[1], higher) && math.Abs(xq[1]-yq[1]) > spread
	}
	if shown(change, base, cq, bq) {
		return "improved"
	}
	if m.Bound == nil {
		if shown(base, change, bq, cq) {
			return "worse"
		}
		return "unresolved"
	}
	if spread > *m.Bound*math.Abs(bq[1]) && !allBetter(change, base, higher) {
		return "unresolved"
	}
	worseBy := (cq[1] - bq[1]) / math.Abs(bq[1])
	if higher {
		worseBy = -worseBy
	}
	if worseBy > *m.Bound {
		return "worse"
	}
	return "within bound"
}

// allBetter reports whether every change run reads better than every base
// run.
func allBetter(change, base []float64, higher bool) bool {
	for _, c := range change {
		for _, b := range base {
			if !better(c, b, higher) {
				return false
			}
		}
	}
	return true
}
