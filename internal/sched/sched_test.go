package sched

import (
	"fmt"
	"regexp"
	"testing"

	"dps/internal/cluster"
	"dps/internal/core"
	"dps/internal/faultinject"
	"dps/internal/power"
	"dps/internal/sim"
	"dps/internal/watch"
	"dps/internal/workload"
)

// smallMachine: 4 clusters × 1 node × 2 sockets, noise-free for exact
// scheduling assertions.
func smallMachine(seed int64) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Clusters = 4
	cfg.NodesPerCluster = 1
	cfg.SocketsPerNode = 2
	cfg.Rapl.NoiseStdDev = 0
	cfg.DemandJitterSD = 0
	cfg.Seed = seed
	return cfg
}

func lowJobs(t *testing.T, n int) []Job {
	t.Helper()
	sortW, err := workload.ByName("Sort")
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{ID: i, Workload: sortW, Arrival: 0}
	}
	return jobs
}

func TestValidate(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Error("Validate accepted an empty config")
	}
	cfg := Config{Machine: smallMachine(1), Jobs: []Job{{ID: 0}}}
	cfg.Budget = power.Budget{Total: 880, UnitMax: 165, UnitMin: 10}
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted a job without a workload")
	}
	w, _ := workload.ByName("Sort")
	cfg.Jobs = []Job{{ID: 0, Workload: w, Arrival: -1}}
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted a negative arrival")
	}
}

func TestBatchCompletesAllJobs(t *testing.T) {
	cfg := Config{Machine: smallMachine(1), Jobs: lowJobs(t, 10), Seed: 1}
	res, err := Run(cfg, sim.ConstantFactory())
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatal("batch timed out")
	}
	if len(res.Jobs) != 10 {
		t.Fatalf("completed %d/10 jobs", len(res.Jobs))
	}
	if res.BudgetViolations != 0 {
		t.Errorf("budget violations: %d", res.BudgetViolations)
	}
	for _, j := range res.Jobs {
		if j.Start < j.Arrival {
			t.Errorf("job %d started before it arrived", j.ID)
		}
		if j.End <= j.Start || j.Duration <= 0 {
			t.Errorf("job %d degenerate timing: %+v", j.ID, j)
		}
		if j.Cluster < 0 || j.Cluster >= 4 {
			t.Errorf("job %d ran on cluster %d", j.ID, j.Cluster)
		}
	}
	if res.Makespan <= 0 || res.ThroughputPerHour <= 0 {
		t.Errorf("aggregates: makespan=%v throughput=%v", res.Makespan, res.ThroughputPerHour)
	}
}

func TestParallelismAcrossClusters(t *testing.T) {
	// 4 identical jobs on 4 clusters: they must run concurrently, so the
	// makespan is near one job's duration, not four.
	cfg := Config{Machine: smallMachine(1), Jobs: lowJobs(t, 4), Seed: 1}
	res, err := Run(cfg, sim.ConstantFactory())
	if err != nil {
		t.Fatal(err)
	}
	oneJob := res.Jobs[0].Duration
	if res.Makespan > oneJob*2 {
		t.Errorf("makespan %v for 4 parallel jobs of ~%v each; no parallelism?", res.Makespan, oneJob)
	}
	clustersUsed := map[int]bool{}
	for _, j := range res.Jobs {
		clustersUsed[j.Cluster] = true
	}
	if len(clustersUsed) != 4 {
		t.Errorf("only %d clusters used for 4 simultaneous jobs", len(clustersUsed))
	}
}

func TestFIFOOrderRespected(t *testing.T) {
	// More jobs than clusters with simultaneous arrival: start times must
	// be non-decreasing in ID order (FIFO).
	cfg := Config{Machine: smallMachine(1), Jobs: lowJobs(t, 9), Seed: 1}
	res, err := Run(cfg, sim.ConstantFactory())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Jobs); i++ {
		if res.Jobs[i].Start < res.Jobs[i-1].Start {
			t.Errorf("job %d started at %v before job %d at %v",
				res.Jobs[i].ID, res.Jobs[i].Start, res.Jobs[i-1].ID, res.Jobs[i-1].Start)
		}
	}
	// Later jobs must actually have waited.
	if res.Jobs[8].Wait <= 0 {
		t.Errorf("9th job on 4 clusters waited %v", res.Jobs[8].Wait)
	}
}

func TestArrivalsDelayDispatch(t *testing.T) {
	w, _ := workload.ByName("Sort")
	jobs := []Job{
		{ID: 0, Workload: w, Arrival: 0},
		{ID: 1, Workload: w, Arrival: 100},
	}
	cfg := Config{Machine: smallMachine(1), Jobs: jobs, Seed: 1}
	res, err := Run(cfg, sim.ConstantFactory())
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[1].Start < 100 {
		t.Errorf("job 1 started at %v, before its arrival at 100", res.Jobs[1].Start)
	}
}

func TestMaxTimeAborts(t *testing.T) {
	cfg := Config{Machine: smallMachine(1), Jobs: lowJobs(t, 50), Seed: 1, MaxTime: 30}
	res, err := Run(cfg, sim.ConstantFactory())
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Error("MaxTime stop not reported")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		cfg := Config{Machine: smallMachine(3), Jobs: lowJobs(t, 6), Seed: 3}
		res, err := Run(cfg, sim.DPSFactory())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.Steps != b.Steps {
		t.Fatalf("same-seed batches diverged: %v/%d vs %v/%d", a.Makespan, a.Steps, b.Makespan, b.Steps)
	}
}

// TestWatchFiresOnBatchBudgetFault is the pair engine's TestWatchSmoke on
// the batch engine, which runs the same controller step: a budget fault
// scheduled for a known round window must fire budget_conservation in the
// first faulted step and resolve it in the first clean one, the engine's
// own violation count must agree with the watchdog, and a clean DPS batch
// (provenance audited every step) must leave every audit inactive.
func TestWatchFiresOnBatchBudgetFault(t *testing.T) {
	const faultFrom, faultUntil = 10, 15 // 1-based decision rounds
	atRound := regexp.MustCompile(`rule=budget_conservation state=(\w+) .*msg="round (\d+):`)
	var transitions []string
	watcher := watch.New(watch.Config{Logf: func(format string, args ...any) {
		if m := atRound.FindStringSubmatch(fmt.Sprintf(format, args...)); m != nil {
			transitions = append(transitions, m[1]+"@"+m[2])
		}
	}})
	factory := func(units int, budget power.Budget, seed int64) (core.Manager, error) {
		inner, err := sim.DPSFactory()(units, budget, seed)
		if err != nil {
			return nil, err
		}
		return faultinject.WrapManager(inner, faultinject.ManagerConfig{
			FromRound: faultFrom, UntilRound: faultUntil, Scale: 1.5,
		}, nil)
	}
	cfg := Config{Machine: smallMachine(3), Jobs: lowJobs(t, 6), Seed: 3, Watcher: watcher}
	res, err := Run(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps < faultUntil {
		t.Fatalf("batch stopped after %d steps, before the fault window closed", res.Steps)
	}
	if res.BudgetViolations != faultUntil-faultFrom {
		t.Errorf("BudgetViolations = %d, want %d (the engine and the watchdog must agree)",
			res.BudgetViolations, faultUntil-faultFrom)
	}
	want := []string{fmt.Sprintf("firing@%d", faultFrom), fmt.Sprintf("resolved@%d", faultUntil)}
	if fmt.Sprint(transitions) != fmt.Sprint(want) {
		t.Errorf("budget_conservation transitions %v, want %v", transitions, want)
	}

	cfg.Watcher = watch.New(watch.Config{})
	res, err = Run(cfg, sim.DPSFactory())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages == nil || res.Stages.Rounds != uint64(res.Steps) {
		t.Errorf("stage breakdown %+v does not cover the batch's %d steps", res.Stages, res.Steps)
	}
	for _, a := range cfg.Watcher.Alerts() {
		if a.State != watch.StateInactive || a.FiredCount != 0 {
			t.Errorf("rule %s = %s (fired %d) on a clean batch, want inactive", a.Rule, a.State, a.FiredCount)
		}
	}
}

func TestRandomBatch(t *testing.T) {
	specs := workload.LowSpark()
	jobs, err := RandomBatch(specs, 20, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 20 {
		t.Fatalf("%d jobs", len(jobs))
	}
	for i, j := range jobs {
		if j.ID != i {
			t.Errorf("job %d has ID %d", i, j.ID)
		}
		if j.Workload == nil {
			t.Errorf("job %d has no workload", i)
		}
		if i > 0 && j.Arrival < jobs[i-1].Arrival {
			t.Errorf("arrivals not monotone at %d", i)
		}
	}
	// Determinism.
	again, err := RandomBatch(specs, 20, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].Arrival != again[i].Arrival || jobs[i].Workload != again[i].Workload {
			t.Fatal("RandomBatch not deterministic for a seed")
		}
	}
	if _, err := RandomBatch(nil, 5, 30, 1); err == nil {
		t.Error("RandomBatch accepted an empty spec list")
	}
	if _, err := RandomBatch(specs, 0, 30, 1); err == nil {
		t.Error("RandomBatch accepted a zero batch size")
	}
}

// TestDPSImprovesThroughput is the headline scheduling assertion: on a
// contended batch of high-power jobs, DPS's makespan and mean turnaround
// beat SLURM's.
func TestDPSImprovesThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a contended batch under 3 managers")
	}
	mids := workload.MidHighSpark()
	var specs []*workload.Spec
	for _, s := range mids {
		if s.Name == "Bayes" || s.Name == "RF" || s.Name == "LR" {
			specs = append(specs, s)
		}
	}
	jobs, err := RandomBatch(specs, 8, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(f sim.ManagerFactory) Result {
		cfg := Config{Machine: smallMachine(5), Jobs: jobs, Seed: 5}
		res, err := Run(cfg, f)
		if err != nil {
			t.Fatal(err)
		}
		if res.TimedOut {
			t.Fatal("batch timed out")
		}
		if res.BudgetViolations != 0 {
			t.Fatalf("%s: %d budget violations", res.Manager, res.BudgetViolations)
		}
		return res
	}
	constant := run(sim.ConstantFactory())
	slurm := run(sim.SLURMFactory())
	dps := run(sim.DPSFactory())
	t.Logf("makespan: constant=%v slurm=%v dps=%v", constant.Makespan, slurm.Makespan, dps.Makespan)
	t.Logf("mean turnaround: constant=%v slurm=%v dps=%v",
		constant.MeanTurnaround, slurm.MeanTurnaround, dps.MeanTurnaround)
	if dps.MeanTurnaround > slurm.MeanTurnaround*1.01 {
		t.Errorf("DPS mean turnaround %v above SLURM %v", dps.MeanTurnaround, slurm.MeanTurnaround)
	}
	if dps.MeanTurnaround > constant.MeanTurnaround*1.01 {
		t.Errorf("DPS mean turnaround %v above constant %v", dps.MeanTurnaround, constant.MeanTurnaround)
	}
}
