package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dps/internal/power"
)

var testBudget = power.Budget{Total: 440, UnitMax: 165, UnitMin: 10}

func mustDPS(t *testing.T, cfg Config) *DPS {
	t.Helper()
	d, err := NewDPS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig(4, testBudget).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := DefaultConfig(4, testBudget)
	bad.HistoryLen = 1
	if _, err := NewDPS(bad); err == nil {
		t.Error("NewDPS accepted HistoryLen 1")
	}
	bad = DefaultConfig(0, testBudget)
	if _, err := NewDPS(bad); err == nil {
		t.Error("NewDPS accepted zero units")
	}
	bad = DefaultConfig(4, power.Budget{Total: -5, UnitMax: 165})
	if _, err := NewDPS(bad); err == nil {
		t.Error("NewDPS accepted a negative budget")
	}
}

func TestInitialStateIsConstantAllocation(t *testing.T) {
	d := mustDPS(t, DefaultConfig(4, testBudget))
	for u, c := range d.Caps() {
		if c != 110 {
			t.Errorf("initial cap[%d] = %v, want the constant cap 110", u, c)
		}
	}
	if d.ConstantCap() != 110 {
		t.Errorf("ConstantCap = %v, want 110", d.ConstantCap())
	}
	if d.Name() != "DPS" {
		t.Errorf("Name = %q, want DPS", d.Name())
	}
}

func TestDecidePanicsOnSizeMismatch(t *testing.T) {
	d := mustDPS(t, DefaultConfig(4, testBudget))
	defer func() {
		if recover() == nil {
			t.Error("Decide with 2 readings for 4 units did not panic")
		}
	}()
	d.Decide(Snapshot{Power: power.Vector{1, 2}, Interval: 1})
}

// The headline safety property: whatever readings arrive (noise, garbage,
// adversarial sequences), the caps DPS emits always respect the budget and
// the hardware limits, and lie on the 0.1 W grid summing to at most the
// budget in whole deciwatts, as devices hold them. The paper reports the
// budget held in every experiment; here it must hold by construction.
func TestBudgetAlwaysRespectedProperty(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		cfg := DefaultConfig(6, power.Budget{Total: 660, UnitMax: 165, UnitMin: 10})
		cfg.Seed = seed
		d, err := NewDPS(cfg)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for s := 0; s < int(steps)+1; s++ {
			readings := make(power.Vector, 6)
			for u := range readings {
				// Include out-of-range garbage: negative spikes and values
				// above TDP, as a broken sensor could produce.
				readings[u] = power.Watts(rng.Float64()*400 - 50)
			}
			caps := d.Decide(Snapshot{Power: readings, Interval: 1})
			if !cfg.Budget.Respected(caps, 1e-6) || caps.SumDeciwatts() > power.FloorDeciwatts(cfg.Budget.Total) {
				return false
			}
			for _, c := range caps {
				if power.FromDeciwatts(power.Deciwatts(c)) != c {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFigureOneRebalancing(t *testing.T) {
	// The paper's motivating scenario: unit 0 saturates first, unit 1
	// follows. After both saturate under an exhausted budget, DPS must
	// equalize their caps; a stateless manager would leave unit 1 starved.
	budget := power.Budget{Total: 220, UnitMax: 165, UnitMin: 10}
	d := mustDPS(t, DefaultConfig(2, budget))
	caps := d.Caps().Clone()
	demand := func(t int) power.Vector {
		dd := power.Vector{40, 40}
		if t >= 4 {
			dd[0] = 165
		}
		if t >= 7 {
			dd[1] = 165
		}
		return dd
	}
	for step := 0; step < 20; step++ {
		dd := demand(step)
		drew := power.Vector{}
		for u := range dd {
			if dd[u] < caps[u] {
				drew = append(drew, dd[u])
			} else {
				drew = append(drew, caps[u])
			}
		}
		caps = d.Decide(Snapshot{Power: drew, Interval: 1}).Clone()
	}
	if imb := power.AbsDiff(caps[0], caps[1]); imb > 5 {
		t.Errorf("final caps %v imbalanced by %v W, want equalized", caps, imb)
	}
	if caps[0] < 105 {
		t.Errorf("equalized cap %v below the constant-allocation floor", caps[0])
	}
}

func TestRestoreAfterQuiescence(t *testing.T) {
	d := mustDPS(t, DefaultConfig(2, testBudget))
	// Skew the caps with asymmetric load first. Constant cap is 220 here
	// (440/2 clamped to 165), so use a tighter budget for a meaningful cap.
	budget := power.Budget{Total: 220, UnitMax: 165, UnitMin: 10}
	d = mustDPS(t, DefaultConfig(2, budget))
	for i := 0; i < 10; i++ {
		d.Decide(Snapshot{Power: power.Vector{160, 20}, Interval: 1})
	}
	if power.AbsDiff(d.Caps()[0], d.Caps()[1]) < 1 {
		t.Fatal("setup failed: caps not skewed")
	}
	// Everything goes quiet: Algorithm 3 must reset to the constant cap.
	for i := 0; i < 3; i++ {
		d.Decide(Snapshot{Power: power.Vector{25, 20}, Interval: 1})
	}
	if !d.Restored() {
		t.Error("Restored() false after full quiescence")
	}
	for u, c := range d.Caps() {
		if c != d.ConstantCap() {
			t.Errorf("cap[%d] = %v after restore, want %v", u, c, d.ConstantCap())
		}
	}
}

func TestDisableRestore(t *testing.T) {
	budget := power.Budget{Total: 220, UnitMax: 165, UnitMin: 10}
	cfg := DefaultConfig(2, budget)
	cfg.DisableRestore = true
	d := mustDPS(t, cfg)
	for i := 0; i < 10; i++ {
		d.Decide(Snapshot{Power: power.Vector{160, 20}, Interval: 1})
	}
	for i := 0; i < 3; i++ {
		d.Decide(Snapshot{Power: power.Vector{25, 20}, Interval: 1})
	}
	if d.Restored() {
		t.Error("restore ran despite DisableRestore")
	}
}

func TestDisablePriorityReducesToStateless(t *testing.T) {
	budget := power.Budget{Total: 220, UnitMax: 165, UnitMin: 10}
	cfg := DefaultConfig(2, budget)
	cfg.DisablePriority = true
	d := mustDPS(t, cfg)
	if d.Name() != "DPS(stateless-only)" {
		t.Errorf("Name = %q", d.Name())
	}
	// Replay Figure 1: without the priority path the skew must persist
	// (that is the stateless pathology DPS exists to fix).
	caps := d.Caps().Clone()
	for step := 0; step < 20; step++ {
		dd := power.Vector{40, 40}
		if step >= 4 {
			dd[0] = 165
		}
		if step >= 7 {
			dd[1] = 165
		}
		drew := power.Vector{min2(dd[0], caps[0]), min2(dd[1], caps[1])}
		caps = d.Decide(Snapshot{Power: drew, Interval: 1}).Clone()
	}
	if power.AbsDiff(caps[0], caps[1]) < 10 {
		t.Errorf("stateless-only DPS equalized caps %v; the ablation should keep the skew", caps)
	}
}

func TestStepsAndPriorities(t *testing.T) {
	d := mustDPS(t, DefaultConfig(2, testBudget))
	if d.Steps() != 0 {
		t.Errorf("Steps = %d before any Decide", d.Steps())
	}
	d.Decide(Snapshot{Power: power.Vector{50, 50}, Interval: 1})
	if d.Steps() != 1 {
		t.Errorf("Steps = %d after one Decide", d.Steps())
	}
	if got := len(d.Priorities()); got != 2 {
		t.Errorf("Priorities length %d, want 2", got)
	}
}

func TestReset(t *testing.T) {
	budget := power.Budget{Total: 220, UnitMax: 165, UnitMin: 10}
	d := mustDPS(t, DefaultConfig(2, budget))
	for i := 0; i < 10; i++ {
		d.Decide(Snapshot{Power: power.Vector{160, 20}, Interval: 1})
	}
	d.Reset()
	if d.Steps() != 0 {
		t.Errorf("Steps = %d after Reset", d.Steps())
	}
	for u, c := range d.Caps() {
		if c != d.ConstantCap() {
			t.Errorf("cap[%d] = %v after Reset, want constant cap", u, c)
		}
	}
	for u, p := range d.Priorities() {
		if p {
			t.Errorf("unit %d still high priority after Reset", u)
		}
	}
}

func TestZeroIntervalDefaultsToOneSecond(t *testing.T) {
	d := mustDPS(t, DefaultConfig(2, testBudget))
	// Must not divide by zero anywhere in the pipeline.
	caps := d.Decide(Snapshot{Power: power.Vector{100, 100}})
	if len(caps) != 2 {
		t.Fatalf("caps length %d", len(caps))
	}
}

func TestDeterministicForSeed(t *testing.T) {
	run := func() power.Vector {
		cfg := DefaultConfig(4, testBudget)
		cfg.Seed = 99
		d := mustDPS(t, cfg)
		rng := rand.New(rand.NewSource(5))
		var caps power.Vector
		for i := 0; i < 60; i++ {
			readings := make(power.Vector, 4)
			for u := range readings {
				readings[u] = power.Watts(rng.Float64() * 165)
			}
			caps = d.Decide(Snapshot{Power: readings, Interval: 1})
		}
		return caps.Clone()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed controllers diverged: %v vs %v", a, b)
		}
	}
}

func min2(a, b power.Watts) power.Watts {
	if a < b {
		return a
	}
	return b
}

func TestRoundStatsTimingsAndOutcomes(t *testing.T) {
	d := mustDPS(t, DefaultConfig(2, testBudget))
	_, st := d.DecideStats(Snapshot{Power: power.Vector{100, 100}, Interval: 1})
	if st.Step != 1 {
		t.Errorf("Step = %d, want 1", st.Step)
	}
	tm := st.Timings
	if tm.Kalman <= 0 || tm.Stateless <= 0 || tm.Priority <= 0 || tm.Readjust <= 0 {
		t.Errorf("stage timings not all positive: %+v", tm)
	}
	if st.Total < tm.Kalman+tm.Stateless+tm.Priority+tm.Readjust {
		t.Errorf("Total %v below the sum of stages %+v", st.Total, tm)
	}
	if st.BudgetClamped {
		t.Error("BudgetClamped after a normal round")
	}
}

func TestRoundStatsBudgetExhaustedAndFlips(t *testing.T) {
	// The Figure 1 scenario saturates both units under an exhausted
	// budget: stats must record equalize rounds and the priority flips
	// that led there.
	budget := power.Budget{Total: 220, UnitMax: 165, UnitMin: 10}
	d := mustDPS(t, DefaultConfig(2, budget))
	caps := d.Caps().Clone()
	sawExhausted, sawFlip := false, false
	for step := 0; step < 20; step++ {
		dd := power.Vector{40, 40}
		if step >= 4 {
			dd[0] = 165
		}
		if step >= 7 {
			dd[1] = 165
		}
		drew := power.Vector{}
		for u := range dd {
			if dd[u] < caps[u] {
				drew = append(drew, dd[u])
			} else {
				drew = append(drew, caps[u])
			}
		}
		c, st := d.DecideStats(Snapshot{Power: drew, Interval: 1})
		caps = c.Clone()
		if st.BudgetExhausted {
			sawExhausted = true
		}
		if st.PriorityFlips > 0 {
			sawFlip = true
		}
		if st.HighPriority < 0 || st.HighPriority > 2 {
			t.Fatalf("HighPriority = %d", st.HighPriority)
		}
	}
	if !sawExhausted {
		t.Error("no round recorded BudgetExhausted under a saturated budget")
	}
	if !sawFlip {
		t.Error("no round recorded a priority flip during ramp-up")
	}
}

func TestRoundStatsRestoredAndReset(t *testing.T) {
	budget := power.Budget{Total: 220, UnitMax: 165, UnitMin: 10}
	d := mustDPS(t, DefaultConfig(2, budget))
	for i := 0; i < 10; i++ {
		d.Decide(Snapshot{Power: power.Vector{160, 20}, Interval: 1})
	}
	var st RoundStats
	for i := 0; i < 3; i++ {
		_, st = d.DecideStats(Snapshot{Power: power.Vector{25, 20}, Interval: 1})
	}
	if !st.Restored {
		t.Error("stats missed the restore event")
	}
	d.Reset()
	if d.Steps() != 0 {
		t.Errorf("Steps after Reset = %d, want 0", d.Steps())
	}
	if _, st = d.DecideStats(Snapshot{Power: power.Vector{100, 100}, Interval: 1}); st.Step != 1 {
		t.Errorf("first round after Reset has Step = %d, want 1", st.Step)
	}
}
