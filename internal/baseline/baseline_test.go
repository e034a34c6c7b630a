package baseline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/stateless"
)

var testBudget = power.Budget{Total: 440, UnitMax: 165, UnitMin: 10}

func TestConstantNeverMoves(t *testing.T) {
	c, err := NewConstant(4, testBudget)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "Constant" {
		t.Errorf("Name = %q", c.Name())
	}
	want := testBudget.ConstantCap(4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		readings := make(power.Vector, 4)
		for u := range readings {
			readings[u] = power.Watts(rng.Float64() * 165)
		}
		caps := c.Decide(core.Snapshot{Power: readings, Interval: 1})
		for u, cap := range caps {
			if cap != want {
				t.Fatalf("step %d: cap[%d] = %v, want %v", i, u, cap, want)
			}
		}
	}
}

func TestConstantValidatesBudget(t *testing.T) {
	if _, err := NewConstant(0, testBudget); err == nil {
		t.Error("NewConstant accepted zero units")
	}
}

func TestConstantPanicsOnSizeMismatch(t *testing.T) {
	c, err := NewConstant(4, testBudget)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Decide with wrong reading count did not panic")
		}
	}()
	c.Decide(core.Snapshot{Power: power.Vector{1}, Interval: 1})
}

func TestSLURMIsTheStatelessModule(t *testing.T) {
	// The SLURM manager must behave exactly like a bare stateless module
	// with the same seed — it adds nothing else.
	s, err := NewSLURM(3, testBudget, stateless.DefaultConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "SLURM" {
		t.Errorf("Name = %q", s.Name())
	}
	m, err := stateless.New(stateless.DefaultConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	budget3 := power.Budget{Total: 330, UnitMax: 165, UnitMin: 10}
	s2, err := NewSLURM(3, budget3, stateless.DefaultConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	refCaps := power.NewVector(3, budget3.ConstantCap(3))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 40; i++ {
		readings := make(power.Vector, 3)
		for u := range readings {
			readings[u] = power.Watts(rng.Float64() * 165)
		}
		got := s2.Decide(core.Snapshot{Power: readings, Interval: 1})
		m.Apply(readings, refCaps, budget3)
		for u := range got {
			if got[u] != refCaps[u] {
				t.Fatalf("step %d unit %d: SLURM %v vs stateless %v", i, u, got[u], refCaps[u])
			}
		}
	}
	_ = s
}

func TestOracleMeetsDemandsWhenBudgetSuffices(t *testing.T) {
	o, err := NewOracle(4, testBudget, DefaultOracleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if o.Name() != "Oracle" {
		t.Errorf("Name = %q", o.Name())
	}
	demand := power.Vector{50, 80, 30, 60} // total 220 + headroom ≪ 440
	caps := o.Decide(core.Snapshot{Power: demand, Interval: 1, Demand: demand})
	for u := range demand {
		if caps[u] < demand[u]+DefaultOracleConfig().Headroom {
			t.Errorf("cap[%d] = %v below demand %v plus headroom", u, caps[u], demand[u])
		}
	}
	if got := caps.Sum(); got > testBudget.Total+1e-9 {
		t.Errorf("caps sum %v exceeds budget", got)
	}
}

func TestOracleProportionalUnderContention(t *testing.T) {
	budget := power.Budget{Total: 220, UnitMax: 165, UnitMin: 10}
	o, err := NewOracle(2, budget, OracleConfig{Headroom: 0})
	if err != nil {
		t.Fatal(err)
	}
	demand := power.Vector{160, 80} // total 240 > 220
	caps := o.Decide(core.Snapshot{Power: demand, Interval: 1, Demand: demand})
	if got := caps.Sum(); math.Abs(float64(got-220)) > 1e-6 {
		t.Errorf("contended oracle should spend the whole budget, sum = %v", got)
	}
	// Shares above the floor must be proportional to demand above the
	// floor: (160−10):(80−10) = 15:7.
	r0 := float64(caps[0] - 10)
	r1 := float64(caps[1] - 10)
	if math.Abs(r0/r1-150.0/70.0) > 1e-6 {
		t.Errorf("allocation ratio %v, want %v", r0/r1, 150.0/70.0)
	}
	// Equal satisfaction is the goal: cap/demand roughly equal.
	s0 := float64(caps[0]) / 160
	s1 := float64(caps[1]) / 80
	if math.Abs(s0-s1) > 0.08 {
		t.Errorf("satisfactions %v and %v diverge", s0, s1)
	}
}

func TestOracleClampsToUnitMax(t *testing.T) {
	budget := power.Budget{Total: 1000, UnitMax: 165, UnitMin: 10}
	o, err := NewOracle(2, budget, DefaultOracleConfig())
	if err != nil {
		t.Fatal(err)
	}
	demand := power.Vector{300, 20}
	caps := o.Decide(core.Snapshot{Power: demand, Interval: 1, Demand: demand})
	if caps[0] > 165 {
		t.Errorf("cap %v exceeds UnitMax", caps[0])
	}
}

func TestOraclePanicsWithoutDemand(t *testing.T) {
	o, err := NewOracle(2, testBudget, DefaultOracleConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("oracle accepted a snapshot without true demands")
		}
	}()
	o.Decide(core.Snapshot{Power: power.Vector{100, 100}, Interval: 1})
}

func TestOracleZeroDemandFallsBackToConstant(t *testing.T) {
	budget := power.Budget{Total: 220, UnitMax: 165, UnitMin: 0}
	o, err := NewOracle(2, budget, OracleConfig{Headroom: 0})
	if err != nil {
		t.Fatal(err)
	}
	caps := o.Decide(core.Snapshot{Power: power.Vector{0, 0}, Interval: 1, Demand: power.Vector{0, 0}})
	// Zero demand fits any budget; each unit gets the spread slack.
	if caps.Sum() > budget.Total+1e-9 {
		t.Errorf("caps sum %v exceeds budget", caps.Sum())
	}
}

func TestOracleRejectsNegativeHeadroom(t *testing.T) {
	if _, err := NewOracle(2, testBudget, OracleConfig{Headroom: -1}); err == nil {
		t.Error("NewOracle accepted negative headroom")
	}
}

// All three baselines respect the budget for arbitrary inputs.
func TestBaselinesBudgetProperty(t *testing.T) {
	budget := power.Budget{Total: 330, UnitMax: 165, UnitMin: 10}
	c, _ := NewConstant(3, budget)
	s, _ := NewSLURM(3, budget, stateless.DefaultConfig(), 1)
	o, _ := NewOracle(3, budget, DefaultOracleConfig())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		readings := make(power.Vector, 3)
		demand := make(power.Vector, 3)
		for u := range readings {
			readings[u] = power.Watts(rng.Float64() * 165)
			demand[u] = power.Watts(rng.Float64() * 200)
		}
		snap := core.Snapshot{Power: readings, Interval: 1, Demand: demand}
		for _, mgr := range []core.Manager{c, s, o} {
			if caps := mgr.Decide(snap); caps.Sum() > budget.Total+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
