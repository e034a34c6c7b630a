package readjust

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dps/internal/power"
)

var budget = power.Budget{Total: 440, UnitMax: 165, UnitMin: 10}

const constCap = power.Watts(110)

func mustNew(t *testing.T, cfg Config) *Module {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Readjust is ReadjustCounted with the high-priority count tallied from
// prio, for tests that hand-build a priority vector.
func (m *Module) Readjust(caps power.Vector, prio []bool, budget power.Budget, constantCap power.Watts) Outcome {
	countHigh := 0
	for _, p := range prio {
		if p {
			countHigh++
		}
	}
	return m.ReadjustCounted(caps, prio, budget, constantCap, countHigh)
}

func TestValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	for _, thr := range []float64{0, -0.1, 1.1} {
		cfg := DefaultConfig()
		cfg.RestoreThreshold = thr
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted RestoreThreshold %v", thr)
		}
	}
}

func TestRestoreWhenAllQuiet(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	caps := power.Vector{150, 40, 90, 60}
	// Everybody under 0.5·110 = 55 W.
	restored := m.Restore(power.Vector{30, 20, 50, 10}, caps, constCap)
	if !restored {
		t.Fatal("restore did not trigger with all units quiet")
	}
	for u, c := range caps {
		if c != constCap {
			t.Errorf("cap[%d] = %v, want constant cap %v", u, c, constCap)
		}
	}
}

func TestRestoreBlockedByOneBusyUnit(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	caps := power.Vector{150, 40}
	// Unit 0 draws 80 W > 55 W: no restoration.
	if m.Restore(power.Vector{80, 20}, caps, constCap) {
		t.Fatal("restore triggered despite a busy unit")
	}
	if caps[0] != 150 || caps[1] != 40 {
		t.Errorf("caps mutated without restoration: %v", caps)
	}
}

func TestRestoreDisabled(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	m.DisableRestore = true
	caps := power.Vector{150, 40}
	if m.Restore(power.Vector{10, 10}, caps, constCap) {
		t.Error("restore ran despite DisableRestore")
	}
}

func TestReadjustNoHighPriorityIsNoop(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	caps := power.Vector{150, 40}
	m.Readjust(caps, []bool{false, false}, budget, constCap)
	if caps[0] != 150 || caps[1] != 40 {
		t.Errorf("caps changed with no high-priority units: %v", caps)
	}
}

func TestGrantLeftoverFavorsLowCaps(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	// 440 − 380 = 60 W leftover; units 0 (cap 60) and 1 (cap 120) are
	// high priority. Weight ∝ 1/cap ⇒ unit 0 gets twice unit 1's share,
	// and neither grant reaches the 165 W hardware clamp.
	caps := power.Vector{60, 120, 100, 100}
	prio := []bool{true, true, false, false}
	m.Readjust(caps, prio, budget, constCap)
	grant0 := float64(caps[0] - 60)
	grant1 := float64(caps[1] - 120)
	if grant0 <= grant1 {
		t.Errorf("low-cap unit granted %v, high-cap unit %v; want more to the low cap", grant0, grant1)
	}
	if math.Abs(grant0-2*grant1) > 1e-6 {
		t.Errorf("grants %v and %v, want 2:1 ratio", grant0, grant1)
	}
	if caps[2] != 100 || caps[3] != 100 {
		t.Errorf("low-priority caps touched: %v", caps)
	}
	if got := caps.Sum(); got > budget.Total+1e-9 {
		t.Errorf("caps sum %v exceeds budget", got)
	}
}

func TestGrantLeftoverClampsAtUnitMax(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	caps := power.Vector{160, 10, 10, 10}
	prio := []bool{true, false, false, false}
	m.Readjust(caps, prio, budget, constCap)
	if caps[0] > budget.UnitMax {
		t.Errorf("cap %v exceeds UnitMax %v", caps[0], budget.UnitMax)
	}
}

func TestEqualizeWhenBudgetExhausted(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	// Sum is exactly the budget: the Figure 1 deadlock state. Units 0 and
	// 1 high priority with skewed caps.
	caps := power.Vector{165, 55, 110, 110}
	prio := []bool{true, true, false, false}
	m.Readjust(caps, prio, budget, constCap)
	if caps[0] != caps[1] {
		t.Errorf("high-priority caps not equalized: %v vs %v", caps[0], caps[1])
	}
	if caps[0] != 110 { // (165+55)/2
		t.Errorf("equalized cap = %v, want 110", caps[0])
	}
	if caps[2] != 110 || caps[3] != 110 {
		t.Errorf("low-priority caps touched: %v", caps)
	}
}

func TestEqualizeEnforcesConstantCapFloor(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	// High-priority units average below the constant cap while
	// low-priority units hold surplus above it: the floor pass must
	// reclaim the surplus.
	caps := power.Vector{80, 80, 140, 140}
	prio := []bool{true, true, false, false}
	m.Readjust(caps, prio, budget, constCap)
	if caps[0] < constCap-1e-9 {
		t.Errorf("high-priority cap %v below the constant-allocation floor %v", caps[0], constCap)
	}
	if caps[2] >= 140 {
		t.Errorf("low-priority surplus not reclaimed: %v", caps[2])
	}
	if got := caps.Sum(); got > budget.Total+1e-6 {
		t.Errorf("caps sum %v exceeds budget", got)
	}
}

func TestEqualizeConservesSum(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	// Exhausted budget with the high-priority mean already above the
	// constant cap: equalization must redistribute within the group
	// without changing the total and without touching low-priority units.
	caps := power.Vector{150, 100, 95, 95}
	prio := []bool{true, true, false, false}
	before := caps.Sum()
	m.Readjust(caps, prio, budget, constCap)
	if got := caps.Sum(); math.Abs(float64(got-before)) > 1e-6 {
		t.Errorf("equalization changed the cap sum: %v → %v", before, got)
	}
	if caps[0] != 125 || caps[1] != 125 {
		t.Errorf("caps = %v, want high-priority units at the 125 mean", caps)
	}
	if caps[2] != 95 || caps[3] != 95 {
		t.Errorf("low-priority caps touched: %v", caps)
	}
}

// The floor pass can always be fully satisfied when the cap sum does not
// exceed the budget: with sum = budget, the low-priority surplus above the
// constant cap is at least (constantCap − highMean)·countHigh by
// conservation. This lemma is why EnforceFloor makes the lower-bound
// guarantee unconditional; the property test demonstrates it.
func TestFloorAlwaysSatisfiableAtFullBudgetProperty(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 3
		b := power.Budget{Total: power.Watts(n) * 110, UnitMax: 165, UnitMin: 10}
		caps := make(power.Vector, n)
		prio := make([]bool, n)
		prio[0] = true // at least one high-priority unit
		for u := range caps {
			caps[u] = 10 + power.Watts(rng.Float64()*155)
			if u > 0 {
				prio[u] = rng.Intn(2) == 0
			}
		}
		// Scale toward the budget. Hardware clamping can leave the sum
		// slightly under it, in which case Readjust takes the
		// leftover-granting branch instead; the floor lemma is asserted
		// only when the exhausted-budget (equalize) branch actually runs.
		scale := b.Total / caps.Sum()
		for u := range caps {
			caps[u] *= scale
			if caps[u] > b.UnitMax {
				caps[u] = b.UnitMax
			}
			if caps[u] < b.UnitMin {
				caps[u] = b.UnitMin
			}
		}
		exhausted := caps.Sum() >= b.Total
		m.Readjust(caps, prio, b, b.ConstantCap(n))
		if exhausted {
			for u := range caps {
				if prio[u] && caps[u] < b.ConstantCap(n)-1e-6 {
					return false
				}
			}
		}
		return caps.Sum() <= b.Total+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEqualizeFloorDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnforceFloor = false
	m := mustNew(t, cfg)
	caps := power.Vector{80, 80, 140, 140}
	prio := []bool{true, true, false, false}
	m.Readjust(caps, prio, budget, constCap)
	if caps[0] != 80 {
		t.Errorf("cap = %v; without the floor the mean of {80,80} is 80", caps[0])
	}
	if caps[2] != 140 {
		t.Errorf("low-priority cap touched with floor disabled: %v", caps[2])
	}
}

func TestReadjustPanicsOnSizeMismatch(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("Readjust with mismatched priorities did not panic")
		}
	}()
	m.Readjust(power.Vector{1, 2}, []bool{true}, budget, constCap)
}

// Readjust never grows the cap sum beyond the budget and never shrinks a
// high-priority group below its own mass minus reclaimed surplus — i.e.
// the total stays within [previous total, budget].
func TestReadjustBudgetInvariantProperty(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 2
		caps := make(power.Vector, n)
		prio := make([]bool, n)
		b := power.Budget{Total: power.Watts(n) * 110, UnitMax: 165, UnitMin: 10}
		for u := range caps {
			caps[u] = 10 + power.Watts(rng.Float64()*130)
			prio[u] = rng.Intn(2) == 0
		}
		// Keep the starting state legal (the pipeline guarantees this).
		if caps.Sum() > b.Total {
			scale := b.Total / caps.Sum()
			for u := range caps {
				caps[u] *= scale
			}
		}
		before := caps.Sum()
		m.Readjust(caps, prio, b, b.ConstantCap(n))
		after := caps.Sum()
		if after > b.Total+1e-6 {
			return false
		}
		// Equalization conserves; granting only adds.
		return after >= before-1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadjustOutcome(t *testing.T) {
	m := mustNew(t, DefaultConfig())

	caps := power.Vector{150, 40}
	if got := m.Readjust(caps, []bool{false, false}, budget, constCap); got != OutcomeNone {
		t.Errorf("no high-priority units: outcome %v, want %v", got, OutcomeNone)
	}

	// 440 − 320 = 120 W leftover: the grant branch.
	caps = power.Vector{60, 60, 100, 100}
	if got := m.Readjust(caps, []bool{true, false, false, false}, budget, constCap); got != OutcomeGrant {
		t.Errorf("leftover budget: outcome %v, want %v", got, OutcomeGrant)
	}

	// Sum at the 440 W budget: the equalize branch.
	caps = power.Vector{140, 100, 100, 100}
	if got := m.Readjust(caps, []bool{true, true, false, false}, budget, constCap); got != OutcomeEqualize {
		t.Errorf("exhausted budget: outcome %v, want %v", got, OutcomeEqualize)
	}

	for o, want := range map[Outcome]string{OutcomeNone: "none", OutcomeGrant: "grant", OutcomeEqualize: "equalize"} {
		if o.String() != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", int(o), o.String(), want)
		}
	}
}
