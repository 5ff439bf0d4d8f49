package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The metric lists the benchmark prints must be the ones BENCHMARK.json
// declares, by name, unit and order.
func TestMetricsMatchDeclaration(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ name, unit string }, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, BENCHMARK.json declares %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: %s (%s), BENCHMARK.json has %s (%s)", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, decl.EndToEnd)
	same("per_layer", perLayer, decl.PerLayer)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json declares %d", len(workloads), len(decl.Workloads))
	}
	for i, w := range workloads {
		if w.name != decl.Workloads[i].Name {
			t.Errorf("workload %d is %s, BENCHMARK.json has %s", i, w.name, decl.Workloads[i].Name)
		}
	}
}
