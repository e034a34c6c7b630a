package sim

import (
	"bytes"
	"testing"

	"dps/internal/cluster"
	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/telemetry"
	"dps/internal/tracelog"
	"dps/internal/workload"
)

func pairCfg(t *testing.T, a, b string, repeats int, seed int64) PairConfig {
	t.Helper()
	wa, err := workload.ByName(a)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := workload.ByName(b)
	if err != nil {
		t.Fatal(err)
	}
	return PairConfig{WorkloadA: wa, WorkloadB: wb, Repeats: repeats, Seed: seed}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	if err := (PairConfig{}).Validate(); err == nil {
		t.Error("Validate accepted a pairless config")
	}
	cfg := pairCfg(t, "Sort", "Wordcount", 1, 1)
	cfg = cfg.withDefaults()
	cfg.Machine.Clusters = 1
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted a single-cluster pair experiment")
	}
}

func TestShortPairCompletesAllRuns(t *testing.T) {
	// Two low-power micro workloads: seconds of virtual time, fast test.
	cfg := pairCfg(t, "Sort", "Wordcount", 3, 5)
	res, err := RunPair(cfg, ConstantFactory())
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Error("short experiment timed out")
	}
	if len(res.A.Runs) < 3 || len(res.B.Runs) < 3 {
		t.Fatalf("runs completed: A=%d B=%d, want ≥3 each", len(res.A.Runs), len(res.B.Runs))
	}
	if res.Manager != "Constant" {
		t.Errorf("Manager = %q", res.Manager)
	}
	// Low-power workloads under a 110 W cap are never throttled: durations
	// near the table values and satisfaction near 1.
	if res.A.MeanSatisfaction < 0.95 {
		t.Errorf("low-power satisfaction %v, want ~1", res.A.MeanSatisfaction)
	}
	if res.Fairness < 0.9 {
		t.Errorf("fairness %v for two unthrottled workloads", res.Fairness)
	}
	for _, r := range res.A.Runs {
		if r.Duration <= 0 || r.MeanPower <= 0 || r.UncappedMeanPower <= 0 {
			t.Errorf("degenerate run record %+v", r)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() PairResult {
		res, err := RunPair(pairCfg(t, "Sort", "Terasort", 2, 9), DPSFactory())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Steps != b.Steps || a.SimTime != b.SimTime {
		t.Fatalf("same-seed experiments differ: %d/%v vs %d/%v", a.Steps, a.SimTime, b.Steps, b.SimTime)
	}
	for i := range a.A.Runs {
		if a.A.Runs[i].Duration != b.A.Runs[i].Duration {
			t.Fatalf("run %d durations differ: %v vs %v", i, a.A.Runs[i].Duration, b.A.Runs[i].Duration)
		}
	}
}

// TestRefreshPeriodInvisibleInTraceLog runs a pair scenario with the
// default controller and with the reference configuration that never
// skips a unit, and requires byte-identical trace logs (time, reading,
// cap, priority per unit per step): skipping settled units must not be
// able to move a number in EXPERIMENTS.md. The standard machine's RAPL
// noise keeps every reading moving, so nothing is skipped there; the
// noise-free variant with cluster B idle for its first 150 s is the one
// where the default controller demonstrably skips.
func TestRefreshPeriodInvisibleInTraceLog(t *testing.T) {
	run := func(quiet bool, refresh int) ([]byte, uint64) {
		factory := DPSFactoryWith(func(c *core.Config) { c.SparseRefreshEvery = refresh })
		var buf bytes.Buffer
		lw := tracelog.NewWriter(&buf)
		cfg := pairCfg(t, "Sort", "Terasort", 2, 9)
		if quiet {
			cfg.Machine = cluster.DefaultConfig()
			cfg.Machine.Seed = cfg.Seed
			cfg.Machine.Rapl.NoiseStdDev = 0
			cfg.StartOffsetB = 150
		}
		cfg.StepHook = func(tm power.Seconds, rec *telemetry.Round) {
			if err := lw.WriteStep(tm, rec.Reading, rec.Cap, rec.Prio); err != nil {
				t.Fatal(err)
			}
		}
		res, err := RunPair(cfg, factory)
		if err != nil {
			t.Fatal(err)
		}
		if err := lw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), res.Stages.SkippedUnits
	}
	for _, quiet := range []bool{false, true} {
		want, refSkipped := run(quiet, 1)
		got, skipped := run(quiet, 0)
		if len(want) == 0 {
			t.Fatalf("quiet=%t: empty trace log", quiet)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("quiet=%t: trace logs differ between refresh=1 (%d bytes) and the default (%d bytes)", quiet, len(want), len(got))
		}
		if refSkipped != 0 {
			t.Errorf("quiet=%t: reference run skipped %d unit-rounds", quiet, refSkipped)
		}
		if quiet && skipped == 0 {
			t.Error("noise-free run skipped no unit-rounds; the comparison is vacuous")
		}
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	r1, err := RunPair(pairCfg(t, "Sort", "Terasort", 2, 1), DPSFactory())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunPair(pairCfg(t, "Sort", "Terasort", 2, 2), DPSFactory())
	if err != nil {
		t.Fatal(err)
	}
	if r1.A.MeanDuration == r2.A.MeanDuration && r1.B.MeanDuration == r2.B.MeanDuration {
		t.Error("different seeds produced identical durations; jitter not wired through")
	}
}

func TestStepHookObservesEveryStep(t *testing.T) {
	cfg := pairCfg(t, "Sort", "Wordcount", 1, 3)
	var calls int
	var lastCaps power.Vector
	cfg.StepHook = func(tm power.Seconds, rec *telemetry.Round) {
		calls++
		if len(rec.Reading) != 20 || len(rec.Cap) != 20 {
			t.Fatalf("hook saw %d readings / %d caps", len(rec.Reading), len(rec.Cap))
		}
		lastCaps = rec.Cap.Clone()
	}
	res, err := RunPair(cfg, ConstantFactory())
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Steps {
		t.Errorf("hook called %d times for %d steps", calls, res.Steps)
	}
	for _, c := range lastCaps {
		if c != 110 {
			t.Errorf("constant manager caps = %v", lastCaps)
			break
		}
	}
}

func TestMaxTimeAborts(t *testing.T) {
	cfg := pairCfg(t, "GMM", "EP", 5, 1)
	cfg.MaxTime = 50 // far too short for these workloads
	res, err := RunPair(cfg, ConstantFactory())
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Error("experiment did not report the MaxTime stop")
	}
	if res.SimTime > 51 {
		t.Errorf("SimTime %v ran past MaxTime", res.SimTime)
	}
}

func TestStartOffsetDelaysClusterB(t *testing.T) {
	cfg := pairCfg(t, "Sort", "Wordcount", 1, 3)
	cfg.StartOffsetB = 30
	res, err := RunPair(cfg, ConstantFactory())
	if err != nil {
		t.Fatal(err)
	}
	// B started 30 s late, so the experiment runs at least that much
	// longer than B's duration alone.
	if float64(res.SimTime) < 30+float64(res.B.MeanDuration) {
		t.Errorf("SimTime %v too short for a 30 s offset + run %v", res.SimTime, res.B.MeanDuration)
	}
}

func TestAllManagersRespectBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("several simulated experiments")
	}
	for name, f := range StandardFactories(true) {
		res, err := RunPair(pairCfg(t, "Bayes", "RF", 2, 13), f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.BudgetViolations != 0 {
			t.Errorf("%s: %d budget violations", name, res.BudgetViolations)
		}
	}
}

func TestDPSFactoryWithAblation(t *testing.T) {
	f := DPSFactoryWith(func(c *core.Config) { c.DisablePriority = true })
	mgr, err := f(4, power.Budget{Total: 440, UnitMax: 165, UnitMin: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mgr.Name() != "DPS(stateless-only)" {
		t.Errorf("ablated manager name = %q", mgr.Name())
	}
}

func TestStandardFactories(t *testing.T) {
	with := StandardFactories(true)
	if len(with) != 4 {
		t.Errorf("with oracle: %d factories", len(with))
	}
	without := StandardFactories(false)
	if len(without) != 3 {
		t.Errorf("without oracle: %d factories", len(without))
	}
	if _, ok := without["Oracle"]; ok {
		t.Error("oracle present despite withOracle=false")
	}
}
