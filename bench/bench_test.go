package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// smokeSpec scales a committed workload down to 64 units on 2 agents and 40
// timed rounds, keeping its shape (traffic mix, surfaces, config).
func smokeSpec(s spec) spec {
	s.units = 64
	s.unitsPerAgent = 32
	if s.noisyAgents > 0 {
		s.noisyAgents = 1
	}
	s.roundsPerSec = 2 * blockRounds
	s.warmup = blockRounds
	s.reps = 2
	return s
}

// smokeDir builds a benchmark directory whose configs are the committed ones
// with the unit count (and the budget-sized watch threshold) scaled down.
func smokeDir(t *testing.T, s spec) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("configs", s.config))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	doc["units"] = s.units
	if rules, ok := doc["watch_rules"].([]any); ok {
		for _, r := range rules {
			if rule := r.(map[string]any); rule["series"] == "dps_cap_sum_watts" {
				rule["value"] = 110*s.units + 1
			}
		}
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "configs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "configs", s.config), out, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func smokeRun(t *testing.T, s spec, traced bool) *result {
	t.Helper()
	dir := smokeDir(t, s)
	if err := os.MkdirAll(filepath.Join(dir, "out"), 0o755); err != nil {
		t.Fatal(err)
	}
	res, err := runWorkload(s, options{dir: dir, seed: 7, seconds: 1, trace: traced})
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	if res.OpsFailed != 0 {
		t.Fatalf("%s: %d failed ops: %v", s.name, res.OpsFailed, res.Failures)
	}
	if res.Rounds != 2*blockRounds || res.OpsTotal != uint64(res.Rounds*s.units) {
		t.Fatalf("%s: %d rounds, %d ops", s.name, res.Rounds, res.OpsTotal)
	}
	if n := res.PerLayer["loop.doorbell_timer_fallbacks"].Value; n != 0 {
		t.Fatalf("%s: the doorbell wait fell back to a timer %v times", s.name, n)
	}
	return res
}

// TestSmoke runs all four workload shapes scaled down, and holds what they
// emit to what BENCHMARK.json declares, in both directions.
func TestSmoke(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	bf, err := loadBenchmarkFile(".")
	if err != nil {
		t.Fatal(err)
	}
	var wantWorkloads, wantE2E, wantLayer []string
	for _, w := range bf.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
	}
	for _, m := range bf.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("BENCHMARK.json: %s has bound %v", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		wantLayer = append(wantLayer, m.Name)
	}
	var gotWorkloads []string
	for _, s := range specs {
		gotWorkloads = append(gotWorkloads, s.name)
	}
	if !slices.Equal(gotWorkloads, wantWorkloads) {
		t.Errorf("workloads: harness runs %v, BENCHMARK.json declares %v", gotWorkloads, wantWorkloads)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)
	declared := append([]string(nil), endToEndNames...)
	sort.Strings(declared)
	if !slices.Equal(declared, wantE2E) {
		t.Errorf("end-to-end metrics: harness prints %v, BENCHMARK.json declares %v", declared, wantE2E)
	}

	var dense *result
	for i, s := range specs {
		// One shape runs traced, so the span path is covered too; both
		// modes emit the same metric names.
		res := smokeRun(t, smokeSpec(s), i == 0)
		if got := sortedKeys(res.EndToEnd); !slices.Equal(got, wantE2E) {
			t.Errorf("%s emits end-to-end metrics %v, BENCHMARK.json declares %v", s.name, got, wantE2E)
		}
		if got := sortedKeys(res.PerLayer); !slices.Equal(got, wantLayer) {
			t.Errorf("%s emits per-layer metrics %v, BENCHMARK.json declares %v", s.name, got, wantLayer)
		}
		for name, m := range res.EndToEnd {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", s.name, name, m.Value)
			}
		}
		if i == 0 {
			dense = res
			if _, err := os.Stat(res.TraceFile); err != nil {
				t.Errorf("traced run left no trace file: %v", err)
			}
			if res.PerLayer["core.decide_ms"].Value <= 0 || res.PerLayer["daemon.decide_once_ms"].Value < res.PerLayer["core.decide_ms"].Value {
				t.Errorf("traced layer rows do not nest: decide_once %v, core.decide %v",
					res.PerLayer["daemon.decide_once_ms"].Value, res.PerLayer["core.decide_ms"].Value)
			}
		}
	}

	// Same seed, same caps — traced or not.
	again := smokeRun(t, smokeSpec(specs[0]), false)
	if again.CapsDigest != dense.CapsDigest || again.CapsDigestPrefix != dense.CapsDigestPrefix {
		t.Errorf("caps digest does not repeat: %s/%s then %s/%s",
			dense.CapsDigest, dense.CapsDigestPrefix, again.CapsDigest, again.CapsDigestPrefix)
	}
}
