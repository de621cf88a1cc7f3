package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"repro/internal/dlb"
)

// Every workload that BENCHMARK.json lists must print exactly the metrics
// it declares: the end-to-end ones with --trace 0, the per-layer ones
// with --trace 1, each with its declared unit.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []decl `json:"workloads"`
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wd := range spec.Workloads {
		w := workloadByName(wd.Name)
		if w == nil {
			t.Errorf("BENCHMARK.json lists unknown workload %s", wd.Name)
			continue
		}
		rp := &report{
			b:       &bench{w: w},
			samples: []sample{{repOut: repOut{res: &dlb.Result{}}}},
		}
		same(t, w.name+" --trace 0", spec.EndToEnd, rp.endToEnd())
		same(t, w.name+" --trace 1", spec.PerLayer, rp.perLayer())
	}
}

// decl is one named entry of BENCHMARK.json.
type decl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func same(t *testing.T, what string, want []decl, got map[string]metric) {
	t.Helper()
	var missing, extra []string
	for _, d := range want {
		m, ok := got[d.Name]
		switch {
		case !ok:
			missing = append(missing, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s has unit %s, BENCHMARK.json says %s", what, d.Name, m.Unit, d.Unit)
		}
		delete(got, d.Name)
	}
	for n := range got {
		extra = append(extra, n)
	}
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		t.Errorf("%s: missing %v, not declared %v", what, missing, extra)
	}
}
