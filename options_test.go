package dps_test

import (
	"os"
	"path/filepath"
	"testing"

	"dps"
)

// TestNewMatchesNewDPS pins the contract of the option constructor: New
// with no options is DefaultConfig, and the controllers it builds make
// the same decisions as the low-level path for the same seed.
func TestNewMatchesNewDPS(t *testing.T) {
	const units = 8
	budget := dps.Budget{Total: 880, UnitMax: 165, UnitMin: 10}

	a, err := dps.New(units, budget, dps.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	cfg := dps.DefaultConfig(units, budget)
	cfg.Seed = 7
	b, err := dps.NewDPS(cfg)
	if err != nil {
		t.Fatal(err)
	}

	demand := dps.Vector{160, 40, 90, 150, 20, 140, 70, 110}
	capsA, capsB := a.Caps().Clone(), b.Caps().Clone()
	for step := 0; step < 50; step++ {
		drawn := make(dps.Vector, units)
		for u := range drawn {
			drawn[u] = demand[u]
			if capsA[u] < drawn[u] {
				drawn[u] = capsA[u]
			}
		}
		nextA, stA := a.DecideStats(dps.Snapshot{Power: drawn, Interval: 1})
		nextB, stB := b.DecideStats(dps.Snapshot{Power: drawn, Interval: 1})
		for u := range nextA {
			if nextA[u] != nextB[u] {
				t.Fatalf("step %d unit %d: New cap %v != NewDPS cap %v", step, u, nextA[u], nextB[u])
			}
		}
		// Timings are wall-clock, so compare only the decision outcomes.
		if stA.Step != stB.Step || stA.Restored != stB.Restored ||
			stA.HighPriority != stB.HighPriority || stA.PriorityFlips != stB.PriorityFlips ||
			stA.BudgetExhausted != stB.BudgetExhausted || stA.BudgetClamped != stB.BudgetClamped {
			t.Fatalf("step %d: stats %+v != %+v", step, stA, stB)
		}
		copy(capsA, nextA)
		copy(capsB, nextB)
	}
}

// TestOptionsApply checks each option lands on the field it documents.
func TestOptionsApply(t *testing.T) {
	budget := dps.Budget{Total: 880, UnitMax: 165, UnitMin: 10}
	def := dps.DefaultConfig(8, budget)
	mgr, err := dps.New(8, budget,
		dps.WithSeed(7),
		dps.WithHistoryLen(30),
		dps.WithStateless(dps.DefaultStatelessConfig()),
		dps.WithKalman(def.Kalman),
		dps.WithPriority(def.Priority),
		dps.WithReadjust(def.Readjust),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, st := mgr.DecideStats(dps.Snapshot{Power: dps.NewVector(8, 60), Interval: 1}); st.Step != 1 {
		t.Errorf("first round has Step = %d, want 1", st.Step)
	}

	if _, err := dps.New(8, budget, dps.WithHistoryLen(1)); err == nil {
		t.Error("WithHistoryLen(1) accepted; want validation error")
	}
}

// TestWithAblation checks ablations disable the mechanisms they name:
// with priority off, DPS reduces to its stateless module and never flags
// a unit high-priority.
func TestWithAblation(t *testing.T) {
	const units = 4
	budget := dps.Budget{Total: 200, UnitMax: 165, UnitMin: 10}
	mgr, err := dps.New(units, budget, dps.WithSeed(3),
		dps.WithAblation(dps.Ablation{Kalman: true, Priority: true}))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 40; step++ {
		mgr.Decide(dps.Snapshot{Power: dps.Vector{150, 150, 20, 20}, Interval: 1})
		for u, hp := range mgr.Priorities() {
			if hp {
				t.Fatalf("step %d: unit %d high-priority with Priority ablated", step, u)
			}
		}
	}
}

// TestLoadDaemonConfig exercises the daemon entry points re-exported by
// the facade; the "shards" key of older config files still loads.
func TestLoadDaemonConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dpsd.json")
	blob := []byte(`{"units": 16, "budget_w": 1600, "policy": "dps", "seed": 7, "shards": 2}`)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	fc, err := dps.LoadDaemonConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Units != 16 || fc.Shards != 2 {
		t.Fatalf("LoadDaemonConfig = %+v, want Units 16, Shards 2", fc)
	}
	mgr, err := fc.BuildManager()
	if err != nil {
		t.Fatal(err)
	}
	d, ok := mgr.(*dps.DPS)
	if !ok {
		t.Fatalf("BuildManager returned %T, want *dps.DPS", mgr)
	}
	if got := len(d.Caps()); got != 16 {
		t.Errorf("daemon-built controller has %d units, want 16", got)
	}

	var st dps.DaemonStatus
	st.Units = fc.Units // the alias is the daemon's own Status type
	if st.Units != 16 {
		t.Fatal("DaemonStatus alias mismatch")
	}
}
