package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
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

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func smallConfig(t *testing.T, trace bool) config {
	return config{seed: 3, seconds: 0.01, trace: trace, small: true, scratch: t.TempDir()}
}

// TestSmoke runs every workload at its smallest size, untraced and traced,
// and checks that it passes its correctness checks and emits exactly the
// metrics BENCHMARK.json names, each with its unit; end-to-end values must
// be positive.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, spec.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				o, err := w.run(smallConfig(t, trace))
				if err != nil {
					t.Fatal(err)
				}
				res := o.result()
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d: %v", trace, res.Correct, res.Attempted, res.Failed, o.failures)
				}
				got := pick(endToEnd, o.endToEnd())
				want := spec.EndToEnd
				if trace {
					got = pick(perLayer, o.layers)
					want = spec.PerLayer
				}
				if len(got) != len(want) {
					t.Fatalf("trace=%v: emits %d metrics, BENCHMARK.json names %d", trace, len(got), len(want))
				}
				for _, m := range want {
					v, ok := got[m.Name]
					switch {
					case !ok:
						t.Errorf("trace=%v: metric %s not emitted", trace, m.Name)
					case v.Unit != m.Unit:
						t.Errorf("trace=%v: metric %s has unit %q, BENCHMARK.json says %q", trace, m.Name, v.Unit, m.Unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("trace=%v: metric %s = %v", trace, m.Name, v.Value)
					case !trace && v.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v.Value)
					}
				}
			}
		})
	}
}

// TestWrongResultIsAFailure flips one bit of the deploy workload's
// reference model: the final-model comparison must count it as a failed
// check, not report the run as correct.
func TestWrongResultIsAFailure(t *testing.T) {
	cfg := smallConfig(t, false)
	cfg.corrupt = func(ref []float64) {
		ref[len(ref)/2] = math.Float64frombits(math.Float64bits(ref[len(ref)/2]) ^ 1)
	}
	o, err := runDeploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := o.result()
	if res.Correct || res.Failed == 0 {
		t.Fatalf("one flipped bit in the reference went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if e := o.endToEnd()["success_rate"]; e >= 1 {
		t.Fatalf("success_rate = %v with a failed check", e)
	}
}
