package daemon

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dps/internal/core"
	"dps/internal/snapshot"
)

func writeConfig(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dpsd.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadFileConfigDefaults(t *testing.T) {
	fc, err := LoadFileConfig(writeConfig(t, `{"units": 20}`))
	if err != nil {
		t.Fatal(err)
	}
	if fc.Listen != ":7891" || fc.Policy != "dps" {
		t.Errorf("defaults: %+v", fc)
	}
	if fc.BudgetW != 2200 {
		t.Errorf("default budget = %v, want 110 W × 20", fc.BudgetW)
	}
	if fc.Interval() != time.Second {
		t.Errorf("default interval = %v", fc.Interval())
	}
	b := fc.Budget()
	if b.Total != 2200 || b.UnitMax != 165 || b.UnitMin != 10 {
		t.Errorf("budget: %+v", b)
	}
}

func TestLoadFileConfigFull(t *testing.T) {
	fc, err := LoadFileConfig(writeConfig(t, `{
		"listen": ":9000",
		"http": ":9001",
		"units": 8,
		"budget_w": 900,
		"unit_max_w": 150,
		"unit_min_w": 12,
		"interval_ms": 500,
		"policy": "slurm",
		"seed": 99
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if fc.Listen != ":9000" || fc.HTTP != ":9001" || fc.Units != 8 || fc.Seed != 99 {
		t.Errorf("parsed: %+v", fc)
	}
	if fc.Interval() != 500*time.Millisecond {
		t.Errorf("interval = %v", fc.Interval())
	}
	mgr, err := fc.BuildManager()
	if err != nil {
		t.Fatal(err)
	}
	if mgr.Name() != "DPS(stateless-only)" {
		t.Errorf("manager = %q", mgr.Name())
	}
}

// TestLoadFileConfigBuildsAllPolicies: both policies build a *core.DPS,
// slurm as its stateless-only preset, and the constant baseline is
// refused with a pointer to the simulator that runs it.
func TestLoadFileConfigBuildsAllPolicies(t *testing.T) {
	for policy, name := range map[string]string{"dps": "DPS", "slurm": "DPS(stateless-only)"} {
		fc, err := LoadFileConfig(writeConfig(t, `{"units": 4, "policy": "`+policy+`"}`))
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		mgr, err := fc.BuildManager()
		if err != nil {
			t.Fatalf("%s: BuildManager: %v", policy, err)
		}
		if d, ok := mgr.(*core.DPS); !ok || d.Name() != name {
			t.Errorf("%s: built %T %q, want *core.DPS %q", policy, mgr, mgr.Name(), name)
		}
	}
	_, err := LoadFileConfig(writeConfig(t, `{"units": 4, "policy": "constant"}`))
	if err == nil || !strings.Contains(err.Error(), "dps-sim") {
		t.Errorf("policy constant: %v, want a refusal naming dps-sim", err)
	}
}

func TestLoadFileConfigRejections(t *testing.T) {
	cases := map[string]string{
		"missing file":    "", // handled below
		"bad json":        `{units: 20}`,
		"unknown field":   `{"units": 20, "budget_tolerance_w": 0.001}`,
		"zero units":      `{"units": 0}`,
		"unknown policy":  `{"units": 4, "policy": "ml"}`,
		"invalid budget":  `{"units": 4, "budget_w": 1, "unit_min_w": 10}`,
		"negative period": `{"units": 4, "interval_ms": -5}`,
		"negative shards": `{"units": 4, "shards": -1}`,
	}
	for name, content := range cases {
		if name == "missing file" {
			if _, err := LoadFileConfig(filepath.Join(t.TempDir(), "absent.json")); err == nil {
				t.Error("missing file accepted")
			}
			continue
		}
		if _, err := LoadFileConfig(writeConfig(t, content)); err == nil {
			t.Errorf("%s: config accepted: %s", name, content)
		}
	}
}

func TestDPSTuningFieldsApplied(t *testing.T) {
	fc, err := LoadFileConfig(writeConfig(t, `{"units": 4, "history_len": 40, "disable_restore": true}`))
	if err != nil {
		t.Fatal(err)
	}
	if fc.HistoryLen != 40 || !fc.DisableRestore {
		t.Errorf("tuning fields: %+v", fc)
	}
	if _, err := fc.BuildManager(); err != nil {
		t.Fatal(err)
	}
}

// TestRetiredKeysStillLoad pins the two compatibility aliases: "shards"
// parses and changes nothing about the controller built, and
// "sparse_rounds": false builds one with refresh period 1, winning over
// any sparse_refresh_every beside it.
func TestRetiredKeysStillLoad(t *testing.T) {
	build := func(content string) snapshot.State {
		t.Helper()
		fc, err := LoadFileConfig(writeConfig(t, content))
		if err != nil {
			t.Fatalf("%s: %v", content, err)
		}
		mgr, err := fc.BuildManager()
		if err != nil {
			t.Fatalf("%s: BuildManager: %v", content, err)
		}
		var st snapshot.State
		mgr.(*core.DPS).ExportState(&st)
		return st
	}
	plain := build(`{"units": 8}`)
	if plain.SparseRefreshEvery != core.DefaultSparseRefreshEvery {
		t.Errorf("default refresh period %d, want %d", plain.SparseRefreshEvery, core.DefaultSparseRefreshEvery)
	}
	if sharded := build(`{"units": 8, "shards": 4}`); !reflect.DeepEqual(sharded, plain) {
		t.Errorf(`"shards": 4 built a different controller:\n%+v\nwant\n%+v`, sharded, plain)
	}
	for _, content := range []string{
		`{"units": 8, "sparse_rounds": false}`,
		`{"units": 8, "sparse_rounds": false, "sparse_refresh_every": 16}`,
	} {
		if got := build(content).SparseRefreshEvery; got != 1 {
			t.Errorf("%s: refresh period %d, want 1", content, got)
		}
	}
	if got := build(`{"units": 8, "sparse_rounds": true, "sparse_refresh_every": 16}`).SparseRefreshEvery; got != 16 {
		t.Errorf("sparse_rounds true overrode sparse_refresh_every: period %d, want 16", got)
	}
}
