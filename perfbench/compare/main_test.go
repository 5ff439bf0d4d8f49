package main

import "testing"

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	} {
		if got := quartiles(tc.in); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.2
	m := metricSpec{Name: "run_s", Better: "lower", Bound: &bound}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	for _, tc := range []struct {
		name         string
		base, change []float64
		want         string
	}{
		{"faster in every pair", base, scale(base, 0.8), "improved"},
		{"slower beyond the bound", base, scale(base, 1.3), "worse"},
		{"slower within the bound", base, scale(base, 1.05), "within bound"},
		{"base spread wider than the bound", noisy, scale(noisy, 1.05), "unresolved"},
		{"too few pairs to claim a gain", base[:5], scale(base[:5], 0.8), "within bound"},
	} {
		if got := verdict(m, tc.base, tc.change); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	higher := metricSpec{Name: "steps_per_s", Better: "higher", Bound: &bound}
	if got := verdict(higher, base, scale(base, 1.25)); got != "improved" {
		t.Errorf("higher-is-better gain: verdict %q, want improved", got)
	}
	if got := verdict(metricSpec{Name: "fs.list_us", Better: "lower"}, base, scale(base, 1.01)); got != "unresolved" {
		t.Errorf("unbounded metric without a shown change: verdict %q, want unresolved", got)
	}
}
