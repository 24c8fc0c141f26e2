package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"hidestore/internal/obs"
)

// contract is the part of BENCHMARK.json the benchmark must honour: the
// metric names and units it prints.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// tiny shrinks a workload to a few small versions, keeping its system,
// retention pattern and backend.
func tiny(s spec) spec {
	s.versions, s.versionMB = 5, 1
	if s.retain > 0 {
		s.retain = 2
	}
	if s.expire > 0 {
		s.expire = 2
	}
	return s
}

func TestWorkloadsMatchContract(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(specs))
	}
	for _, w := range c.Workloads {
		if _, err := findSpec(w.Name); err != nil {
			t.Error(err)
		}
	}
}

// TestTinyRuns runs every workload at tiny scale, untraced and traced,
// and checks that each prints every contract metric with its unit, that
// no operation fails, and (traced) that the rebuilt engine reproduces
// the public one and writes a trace cmd/tracereport accepts.
func TestTinyRuns(t *testing.T) {
	c := readContract(t)
	tracereport := filepath.Join(t.TempDir(), "tracereport")
	if out, err := exec.Command("go", "build", "-o", tracereport, "hidestore/cmd/tracereport").CombinedOutput(); err != nil {
		t.Fatalf("build tracereport: %v\n%s", err, out)
	}
	for _, s := range specs {
		for _, trace := range []bool{false, true} {
			s, trace := tiny(s), trace
			name := s.name
			want := c.EndToEnd
			if trace {
				name += "/traced"
				want = c.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				o := options{seconds: 0, trace: trace, work: t.TempDir(), tracereport: tracereport}
				res, err := run(context.Background(), s, o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct %v, %d of %d operations failed", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, contract lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s: unit %q, contract says %q", m.Name, got.Unit, m.Unit)
					}
					if !trace && got.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", m.Name)
					}
				}
				if !trace && res.Metrics["op_success_rate"].Value != 1 {
					t.Errorf("op_success_rate %v, want 1", res.Metrics["op_success_rate"].Value)
				}
			})
		}
	}
}

func TestCoverage(t *testing.T) {
	at := func(start, end int64) obs.TraceRecord { return obs.TraceRecord{Start: start, Dur: end - start} }
	kids := []obs.TraceRecord{at(50, 60), at(10, 20), at(15, 30), at(90, 150)}
	// [10,30) + [50,60) + [90,100): overlaps count once, and the last
	// child is clipped to its parent.
	if got := coverage(at(0, 100), kids); got != 40 {
		t.Fatalf("coverage %d, want 40", got)
	}
}
