package dps_test

import (
	"testing"

	"dps/internal/core"
	"dps/internal/power"
)

// TestBudgetClampIgnoresSumDrift: the final clamp's "over budget" signal
// (RoundStats.BudgetClamped, dps_budget_violations_total) must not fire on
// the rounding of a sum of 16 384 caps. 600 closed-loop rounds of the
// phased trace at the default configuration once summed to 1.008e-6 W over
// a 1 802 240 W budget (5.6e-13 relative) under a fixed 1e-6 W bound. A
// real excess is still caught: the same controller, handed a budget 1 mW
// below its settled cap sum, must flag the round.
func TestBudgetClampIgnoresSumDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("600 rounds at 16k units")
	}
	const units = 16384
	budget := power.Budget{Total: units * 110, UnitMax: 165, UnitMin: 10}
	d, err := core.NewDPS(core.DefaultConfig(units, budget))
	if err != nil {
		t.Fatal(err)
	}
	g := newPhasedTrace(units, 1)
	readings := make(power.Vector, units)
	caps := power.NewVector(units, 110)
	snap := core.Snapshot{Power: readings, Interval: 1}
	for round := 1; round <= 600; round++ {
		g.step(readings, caps)
		var st core.RoundStats
		caps, st = d.DecideStats(snap)
		if st.BudgetClamped {
			t.Fatalf("round %d: clamp flagged a cap sum %v W against a %v W budget", round, caps.Sum(), budget.Total)
		}
	}

	// Every unit stale: the caps are pinned where they are, so the clamp
	// sees exactly the excess the budget cut leaves.
	if err := d.SetTotalBudget(caps.Sum() - 1e-3); err != nil {
		t.Fatal(err)
	}
	snap.Health = make([]core.UnitHealth, units)
	for u := range snap.Health {
		snap.Health[u] = core.HealthStale
	}
	if _, st := d.DecideStats(snap); !st.BudgetClamped {
		t.Error("a 1 mW excess over the budget went unflagged")
	}
}
