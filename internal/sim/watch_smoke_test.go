package sim

import (
	"testing"

	"dps/internal/core"
	"dps/internal/faultinject"
	"dps/internal/power"
	"dps/internal/telemetry"
	"dps/internal/watch"
	"dps/internal/workload"
)

// TestWatchSmoke is the self-monitoring end-to-end gate (also run by
// `make watch-smoke`): a daemon+sim closed loop runs with the watchdog as
// the oracle, a budget fault is injected for a known round window, and
// the budget_conservation alert must fire within one round of the first
// faulted step and resolve within one round of recovery. The whole
// schedule is deterministic: fixed seed, fixed fault window, virtual
// time.
func TestWatchSmoke(t *testing.T) {
	gmm, err := workload.ByName("GMM")
	if err != nil {
		t.Fatal(err)
	}
	lda, err := workload.ByName("LDA")
	if err != nil {
		t.Fatal(err)
	}

	const faultFrom, faultUntil = 10, 15 // 1-based decision rounds
	watcher := watch.New(watch.Config{})
	cfg := PairConfig{
		WorkloadA: lda, WorkloadB: gmm,
		Repeats: 1, Seed: 7,
		MaxTime: 60,
		Watcher: watcher,
	}

	// Wrap the DPS factory with the scheduled budget fault. The wrapper is
	// not a *core.DPS, so the engine uses the plain Decide path — the
	// corrupted caps flow to the machine exactly as a buggy controller's
	// would.
	factory := func(units int, budget power.Budget, seed int64) (core.Manager, error) {
		inner, err := DPSFactory()(units, budget, seed)
		if err != nil {
			return nil, err
		}
		return faultinject.WrapManager(inner, faultinject.ManagerConfig{
			FromRound: faultFrom, UntilRound: faultUntil, Scale: 1.5,
		}, nil)
	}

	// The StepHook runs right after the engine audited the step, so the
	// per-round alert state is exactly the watchdog's view of that round.
	states := []string{}
	cfg.StepHook = func(power.Seconds, *telemetry.Round) {
		for _, a := range watcher.Alerts() {
			if a.Rule == watch.RuleBudgetConservation {
				states = append(states, a.State)
			}
		}
	}

	res, err := RunPair(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps < faultUntil {
		t.Fatalf("simulation stopped after %d steps, before the fault window closed", res.Steps)
	}
	wantViolations := faultUntil - faultFrom
	if res.BudgetViolations != wantViolations {
		t.Fatalf("BudgetViolations = %d, want %d (the engine and the watchdog must agree)",
			res.BudgetViolations, wantViolations)
	}

	for round := 1; round <= res.Steps && round <= len(states); round++ {
		st := states[round-1]
		var want string
		switch {
		case round < faultFrom:
			want = watch.StateInactive
		case round < faultUntil:
			want = watch.StateFiring
		default:
			want = watch.StateResolved
		}
		if st != want {
			t.Fatalf("round %d: budget_conservation = %q, want %q (full timeline %v)",
				round, st, want, states)
		}
	}

	final := watcher.Alerts()
	for _, a := range final {
		switch a.Rule {
		case watch.RuleBudgetConservation:
			if a.State != watch.StateResolved || a.FiredCount != 1 {
				t.Errorf("budget_conservation ended %q after %d firings, want resolved after 1", a.State, a.FiredCount)
			}
		case watch.RuleProvenanceCoverage, watch.RuleHealthPinIntegrity:
			// The wrapper hides the DPS stats API, so these audits carry no
			// evidence and must never fire.
			if a.State != watch.StateInactive {
				t.Errorf("%s = %q on a run with no evidence, want inactive", a.Rule, a.State)
			}
		}
	}
}

// TestWatchOracleCleanRun is the false-positive gate: a healthy DPS pair
// experiment with the watchdog attached must end with every builtin audit
// inactive — in particular, provenance coverage is audited on every round
// (the manager is a real core.DPS here) and must hold throughout.
func TestWatchOracleCleanRun(t *testing.T) {
	gmm, err := workload.ByName("GMM")
	if err != nil {
		t.Fatal(err)
	}
	lda, err := workload.ByName("LDA")
	if err != nil {
		t.Fatal(err)
	}
	watcher := watch.New(watch.Config{})
	cfg := PairConfig{
		WorkloadA: lda, WorkloadB: gmm,
		Repeats: 1, Seed: 11,
		MaxTime: 120,
		Watcher: watcher,
	}
	res, err := RunPair(cfg, DPSFactory())
	if err != nil {
		t.Fatal(err)
	}
	if res.BudgetViolations != 0 {
		t.Fatalf("clean run reported %d budget violations", res.BudgetViolations)
	}
	for _, a := range watcher.Alerts() {
		if a.State != watch.StateInactive || a.FiredCount != 0 {
			t.Errorf("rule %s = %s (fired %d) on a clean run, want inactive", a.Rule, a.State, a.FiredCount)
		}
	}
}
