package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload of BENCHMARK.json on a tiny input, untraced
// and traced, and checks that the run passes its correctness checks and
// prints every metric the file names, with its unit, and no other.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, bw := range bf.Workloads {
		var w *workload
		for i := range workloads {
			if workloads[i].name == bw.Name {
				w = &workloads[i]
			}
		}
		if w == nil {
			t.Errorf("workload %q of BENCHMARK.json is not implemented", bw.Name)
			continue
		}
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			var out bytes.Buffer
			res, err := runWorkload(*w, 1, 0, trace, true, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w.name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s: got %+v (present %v), want unit %s", w.name, trace, m.Name, got, ok, m.Unit)
				}
				if !containsLine(out.String(), m.Name, m.Unit) {
					t.Errorf("%s trace=%v: report prints no line for %s in %s", w.name, trace, m.Name, m.Unit)
				}
			}
		}
	}
}

// containsLine reports whether some report line starts with the metric's
// name and shows its unit.
func containsLine(report, name, unit string) bool {
	for _, l := range strings.Split(report, "\n") {
		f := strings.Fields(l)
		if len(f) >= 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}
