package core

import (
	"testing"

	"dps/internal/power"
)

func healthTestConfig(units int) Config {
	cfg := DefaultConfig(units, power.Budget{
		Total:   power.Watts(units) * 110,
		UnitMax: 165,
		UnitMin: 10,
	})
	return cfg
}

// warmUp runs healthy rounds so the controller has real state (primed
// filters, populated history) before a test degrades it.
func warmUp(t *testing.T, d *DPS, readings power.Vector, rounds int) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		d.Decide(Snapshot{Power: readings, Interval: 1})
	}
}

// TestHealthAllFreshMatchesNil pins that an all-fresh health slice takes
// the exact healthy code path: two identical controllers, one fed nil
// health and one fed explicit HealthFresh everywhere, stay bitwise
// identical.
func TestHealthAllFreshMatchesNil(t *testing.T) {
	const units = 6
	a, err := NewDPS(healthTestConfig(units))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDPS(healthTestConfig(units))
	if err != nil {
		t.Fatal(err)
	}
	health := make([]UnitHealth, units)
	readings := make(power.Vector, units)
	for step := 0; step < 50; step++ {
		for u := range readings {
			readings[u] = power.Watts(40 + 10*((step+u)%7))
		}
		capsA := a.Decide(Snapshot{Power: readings, Interval: 1})
		capsB := b.Decide(Snapshot{Power: readings, Interval: 1, Health: health})
		for u := range capsA {
			if capsA[u] != capsB[u] {
				t.Fatalf("step %d unit %d: nil-health cap %v != all-fresh cap %v", step, u, capsA[u], capsB[u])
			}
		}
	}
}

// TestHealthPinsNonFreshCaps verifies the freeze/reserve semantics: once a
// unit goes stale or dead its cap never moves, no matter what the fresh
// units' readings do, and the budget invariant holds every round.
func TestHealthPinsNonFreshCaps(t *testing.T) {
	const units = 5
	d, err := NewDPS(healthTestConfig(units))
	if err != nil {
		t.Fatal(err)
	}
	budget := d.Budget()
	readings := power.Vector{120, 30, 90, 140, 60}
	warmUp(t, d, readings, 10)

	pinnedStale := d.Caps()[1]
	pinnedDead := d.Caps()[3]
	health := []UnitHealth{HealthFresh, HealthStale, HealthFresh, HealthDead, HealthFresh}

	for step := 0; step < 40; step++ {
		// Fresh readings churn; the non-fresh units replay stale values.
		readings[0] = power.Watts(60 + 5*(step%9))
		readings[2] = power.Watts(150 - 3*(step%11))
		readings[4] = power.Watts(20 + 7*(step%13))
		caps, st := d.DecideStats(Snapshot{Power: readings, Interval: 1, Health: health})
		if caps[1] != pinnedStale {
			t.Fatalf("step %d: stale unit cap moved %v -> %v", step, pinnedStale, caps[1])
		}
		if caps[3] != pinnedDead {
			t.Fatalf("step %d: dead unit cap moved %v -> %v", step, pinnedDead, caps[3])
		}
		if !budget.Respected(caps, 1e-6) {
			t.Fatalf("step %d: degraded caps violate budget: sum=%v budget=%v", step, caps.Sum(), budget.Total)
		}
		if st.StaleUnits != 1 || st.DeadUnits != 1 {
			t.Fatalf("step %d: stats stale=%d dead=%d, want 1/1", step, st.StaleUnits, st.DeadUnits)
		}
		if st.BudgetClamped {
			t.Fatalf("step %d: masked rescale failed to absorb the degraded excess", step)
		}
	}
}

// TestDeadReservationBudgetProof is the budget-reservation argument as a
// test. A dead unit's agent keeps enforcing the last cap it was pushed.
// A health-blind controller keeps consuming the dead unit's frozen (low)
// reading, walks its book cap down, and re-grants the freed watts to the
// hungry fresh units — but those watts were never actually freed, so the
// sum of caps *physically enforced* in the cluster exceeds the budget.
// The health-aware controller reserves the dead unit's budget at its last
// delivered cap and never violates.
func TestDeadReservationBudgetProof(t *testing.T) {
	const units = 4
	const dead = 0
	naive, err := NewDPS(healthTestConfig(units))
	if err != nil {
		t.Fatal(err)
	}
	aware, err := NewDPS(healthTestConfig(units))
	if err != nil {
		t.Fatal(err)
	}
	budget := naive.Budget()

	// Before the failure: the soon-to-die unit idles at 20 W, the rest run
	// hot at their caps (always asking for more).
	readings := make(power.Vector, units)
	hot := func(caps power.Vector) {
		readings[dead] = 20
		for u := 1; u < units; u++ {
			readings[u] = caps[u]
		}
	}
	hot(naive.Caps())
	warmUp(t, naive, readings, 5)
	hot(aware.Caps())
	warmUp(t, aware, readings, 5)

	// The unit dies. Its agent keeps applying the last delivered cap.
	appliedDeadNaive := naive.Caps()[dead]
	appliedDeadAware := aware.Caps()[dead]
	health := make([]UnitHealth, units)
	health[dead] = HealthDead

	violated := false
	for step := 0; step < 60; step++ {
		// The dead unit's reading is frozen at its last report (20 W);
		// fresh units keep reporting at-cap consumption.
		hotN := naive.Caps().Clone()
		hotN[dead] = 20
		readings = hotN
		readings[dead] = 20
		capsNaive := naive.Decide(Snapshot{Power: readings, Interval: 1})

		// What the cluster physically enforces under the naive controller:
		// the fresh units' new caps plus the cap the dead node still holds.
		enforced := capsNaive.Sum() - capsNaive[dead] + appliedDeadNaive
		if enforced > budget.Total+1e-6 {
			violated = true
		}

		readingsAware := aware.Caps().Clone()
		readingsAware[dead] = 20
		capsAware, _ := aware.DecideStats(Snapshot{Power: readingsAware, Interval: 1, Health: health})
		if capsAware[dead] != appliedDeadAware {
			t.Fatalf("step %d: health-aware controller moved the dead unit's cap %v -> %v",
				step, appliedDeadAware, capsAware[dead])
		}
		enforcedAware := capsAware.Sum() // pinned cap == applied cap by construction
		if enforcedAware > budget.Total+1e-6 {
			t.Fatalf("step %d: health-aware enforced sum %v exceeds budget %v",
				step, enforcedAware, budget.Total)
		}
	}
	if !violated {
		t.Fatal("naive controller never over-committed the enforced budget; the reservation argument test lost its teeth")
	}
}

// TestHealthRecoveryRejoinsNextRound verifies full participation returns
// within one round of health going fresh again: the previously pinned cap
// becomes re-decidable immediately.
func TestHealthRecoveryRejoinsNextRound(t *testing.T) {
	const units = 3
	d, err := NewDPS(healthTestConfig(units))
	if err != nil {
		t.Fatal(err)
	}
	readings := power.Vector{130, 130, 130}
	warmUp(t, d, readings, 8)

	health := []UnitHealth{HealthFresh, HealthDead, HealthFresh}
	for step := 0; step < 10; step++ {
		d.DecideStats(Snapshot{Power: readings, Interval: 1, Health: health})
	}
	pinned := d.Caps()[1]

	// Recovery: the unit reports again, far below its pinned cap. The very
	// next round must move its cap (the stateless MIMD stage alone pulls a
	// cap toward a reading this far under it).
	health[1] = HealthFresh
	readings[1] = 15
	caps, st := d.DecideStats(Snapshot{Power: readings, Interval: 1, Health: health})
	if st.StaleUnits != 0 || st.DeadUnits != 0 {
		t.Fatalf("recovered round still reports stale=%d dead=%d", st.StaleUnits, st.DeadUnits)
	}
	if caps[1] == pinned {
		t.Fatalf("recovered unit still pinned at %v one round after going fresh", pinned)
	}
	if !d.Budget().Respected(caps, 1e-6) {
		t.Fatalf("post-recovery caps violate budget: %v", caps.Sum())
	}
}
