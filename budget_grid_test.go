package dps_test

import (
	"math"
	"testing"

	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/proto"
)

// TestBudgetHoldsOnWireGrid holds the paper's one absolute claim,
// Σcaps ≤ budget, where it matters: on the caps devices enforce. Agents
// program proto.ToDeciwatts(cap), so each round sums the caps in whole
// deciwatts and compares the sum with the budget's ⌊10·budget⌋, with no
// slack. 600 closed-loop rounds of the phased trace run at 2 048 units
// under -short and 16 384 otherwise. A real excess is still reported:
// the same controller with every unit stale, handed a budget one
// deciwatt under the sum of its pinned caps, must flag BudgetClamped.
func TestBudgetHoldsOnWireGrid(t *testing.T) {
	units := 16384
	if testing.Short() {
		units = 2048
	}
	budget := power.Budget{Total: power.Watts(units) * 110, UnitMax: 165, UnitMin: 10}
	d, err := core.NewDPS(core.DefaultConfig(units, budget))
	if err != nil {
		t.Fatal(err)
	}
	wire := func(caps power.Vector) (dw int64) {
		for _, c := range caps {
			dw += int64(proto.ToDeciwatts(c))
		}
		return dw
	}
	limit := int64(math.Floor(float64(budget.Total) * 10))
	g := newPhasedTrace(units, 1)
	readings := make(power.Vector, units)
	caps := power.NewVector(units, 110)
	snap := core.Snapshot{Power: readings, Interval: 1}
	over, worst := 0, int64(0)
	for round := 1; round <= 600; round++ {
		g.step(readings, caps)
		var st core.RoundStats
		caps, st = d.DecideStats(snap)
		if st.BudgetClamped {
			t.Errorf("round %d: BudgetClamped on a feasible round", round)
		}
		if excess := wire(caps) - limit; excess > 0 {
			over++
			worst = max(worst, excess)
		}
	}
	if over != 0 {
		t.Errorf("%d of 600 rounds over budget on the wire, worst +%.1f W", over, float64(worst)/10)
	}

	// Every unit stale: the caps are pinned where they are, so the fit
	// sees exactly the one-deciwatt excess.
	if err := d.SetTotalBudget(power.Watts(float64(wire(caps)-1) / 10)); err != nil {
		t.Fatal(err)
	}
	snap.Health = make([]core.UnitHealth, units)
	for u := range snap.Health {
		snap.Health[u] = core.HealthStale
	}
	if _, st := d.DecideStats(snap); !st.BudgetClamped {
		t.Error("a 0.1 W excess over the budget went unflagged")
	}
}
