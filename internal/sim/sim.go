// Package sim is the discrete-time experiment engine: it wires a simulated
// machine (clusters of RAPL sockets running workloads) to a power manager
// in closed loop and measures what the paper measures — per-run throughput
// times, satisfaction, and fairness.
//
// The loop per decision interval (dT, default 1 s) mirrors the deployed
// system: sockets draw power under the currently programmed caps, the
// controller receives the measured (noisy) per-unit average power, decides
// new caps, and programs them. The controller step is the round engine
// dpsd runs (internal/engine), so every experiment passes through the
// daemon's own delivery step. Workload runs launch back-to-back on each
// cluster with a short idle gap, exactly like the paper's experiment
// scripts repeating each workload in a pair.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"dps/internal/cluster"
	"dps/internal/core"
	"dps/internal/engine"
	"dps/internal/metrics"
	"dps/internal/power"
	"dps/internal/telemetry"
	"dps/internal/trace"
	"dps/internal/watch"
	"dps/internal/workload"
)

// ManagerFactory builds a power manager for a machine of `units` units
// under `budget`. Factories exist so one experiment description can be
// replayed against every policy.
type ManagerFactory func(units int, budget power.Budget, seed int64) (core.Manager, error)

// PairConfig describes one co-execution experiment: workload A on cluster
// 0 and workload B on cluster 1.
type PairConfig struct {
	// WorkloadA runs on cluster 0, WorkloadB on cluster 1.
	WorkloadA, WorkloadB *workload.Spec
	// Repeats is the minimum number of completed runs per cluster before
	// the experiment stops (the paper repeats each workload ≥10 times).
	Repeats int
	// Gap is the idle time between consecutive runs on a cluster.
	Gap power.Seconds
	// StartOffsetB delays cluster 1's first run to decorrelate phases.
	StartOffsetB power.Seconds

	// The fields above schedule the pair's runs; the fields below describe
	// the closed loop itself and are all that Drive reads.

	// Machine is the simulated platform (default: the paper's 2×5×2
	// sockets).
	Machine cluster.Config
	// Budget is the cluster-wide envelope. The zero value selects the
	// paper's 66.7 % limit: 110 W per socket.
	Budget power.Budget
	// DT is the decision interval (default 1 s).
	DT power.Seconds
	// Seed drives all experiment randomness (workload jitter, RAPL noise,
	// manager tie-breaking).
	Seed int64
	// MaxTime aborts a runaway experiment. Zero selects a generous bound
	// derived from the workloads' table durations.
	MaxTime power.Seconds
	// MaxSteps, when positive, stops the experiment after this many
	// decision intervals even if repeats are unfinished — fixed-length
	// traces for tests and benchmarks, without overloading the MaxTime
	// safety stop.
	MaxSteps int
	// StepHook, if non-nil, observes every step after caps are applied:
	// virtual time and the step's round record (readings, programmed
	// caps, priorities when the manager is a core.DPS). The record is
	// owned by the engine and only valid during the call.
	StepHook func(t power.Seconds, rec *telemetry.Round)
	// Tracer, if non-nil, receives round-scoped spans: one sim_step span
	// per decision interval on the sim lane, plus the controller's
	// per-stage spans when the manager is a core.DPS.
	Tracer *trace.Recorder
	// Watcher, if non-nil, audits every step's round record (budget vs
	// programmed cap sum, provenance when the manager is a core.DPS) so
	// chaos experiments can use the watchdog itself as the oracle. Records
	// are stamped with virtual time mapped onto the Unix epoch, keeping the
	// alert lifecycle deterministic for a fixed configuration.
	Watcher *watch.Watcher
}

// withDefaults fills zero fields.
func (c PairConfig) withDefaults() PairConfig {
	if c.Machine.Clusters == 0 {
		c.Machine = cluster.DefaultConfig()
		c.Machine.Seed = c.Seed
	}
	if c.Budget.Total == 0 {
		units := c.Machine.Units()
		c.Budget = power.Budget{
			Total:   power.Watts(units) * 110,
			UnitMax: c.Machine.Rapl.TDP,
			UnitMin: c.Machine.Rapl.MinCap,
		}
	}
	if c.Repeats == 0 {
		c.Repeats = 3
	}
	if c.Gap == 0 {
		c.Gap = 8
	}
	if c.DT == 0 {
		c.DT = 1
	}
	if c.MaxTime == 0 {
		perRun := float64(c.WorkloadA.TableDuration + c.WorkloadB.TableDuration)
		c.MaxTime = power.Seconds(float64(c.Repeats)*perRun*4 + 3600)
	}
	return c
}

// Validate reports whether the configuration is runnable.
func (c PairConfig) Validate() error {
	if c.WorkloadA == nil || c.WorkloadB == nil {
		return fmt.Errorf("sim: pair needs two workloads (A=%v B=%v)", c.WorkloadA, c.WorkloadB)
	}
	if c.Machine.Clusters < 2 {
		return fmt.Errorf("sim: pair experiment needs at least 2 clusters, have %d", c.Machine.Clusters)
	}
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	return c.Budget.Validate(c.Machine.Units())
}

// RunRecord is one completed workload run.
type RunRecord struct {
	// Index is the run's position on its cluster (0-based).
	Index int
	// Duration is the run's wall-clock completion time (the paper's
	// "throughput time").
	Duration power.Seconds
	// MeanPower is the average true power per socket during the run.
	MeanPower power.Watts
	// UncappedMeanPower is what the run would have averaged with no caps.
	UncappedMeanPower power.Watts
	// Satisfaction is Equation 1 for this run.
	Satisfaction float64
}

// ClusterResult aggregates one cluster's runs in a pair experiment.
type ClusterResult struct {
	Workload string
	Runs     []RunRecord
	// MeanDuration is the arithmetic mean completion time of completed
	// runs (the paper's per-workload metric).
	MeanDuration power.Seconds
	// HMeanDuration is the harmonic mean of completion times.
	HMeanDuration power.Seconds
	// MeanSatisfaction averages per-run satisfaction.
	MeanSatisfaction float64
}

// PairResult is the outcome of one pair experiment under one manager.
type PairResult struct {
	Manager string
	A, B    ClusterResult
	// Fairness is Equation 2 between the two clusters' mean satisfactions.
	Fairness float64
	// Steps is the number of decision intervals simulated.
	Steps int
	// SimTime is the total virtual time.
	SimTime power.Seconds
	// BudgetViolations counts steps whose programmed caps exceeded the
	// budget (must be 0; the paper reports caps were always respected).
	BudgetViolations int
	// TimedOut reports the MaxTime safety stop fired before both clusters
	// finished their repeats.
	TimedOut bool
	// Stages carries per-stage controller timing accumulated over the
	// experiment. Nil unless the manager is a core.DPS.
	Stages *StageBreakdown
}

// clusterState tracks run scheduling for one cluster during an experiment.
type clusterState struct {
	spec      *workload.Spec
	rng       *rand.Rand
	completed []RunRecord
	nextStart power.Seconds
}

// RunPair executes one pair experiment under the manager the factory
// builds. It is deterministic for a fixed configuration.
func RunPair(cfg PairConfig, factory ManagerFactory) (PairResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return PairResult{}, err
	}
	states := []*clusterState{
		{spec: cfg.WorkloadA, rng: rand.New(rand.NewSource(cfg.Seed*1_000_003 + 1))},
		{spec: cfg.WorkloadB, rng: rand.New(rand.NewSource(cfg.Seed*1_000_003 + 2)), nextStart: cfg.StartOffsetB},
	}
	done := func() bool {
		for _, s := range states {
			if len(s.completed) < cfg.Repeats {
				return false
			}
		}
		return true
	}
	// Launch runs that are due.
	launch := func(mach *cluster.Machine, t power.Seconds) {
		for ci, s := range states {
			cl := mach.Cluster(ci)
			if cl.Run() == nil && t >= s.nextStart && len(s.completed) < cfg.Repeats {
				cl.SetRun(workload.NewRun(s.spec, s.rng))
			}
		}
	}
	// Harvest completed runs.
	harvest := func(mach *cluster.Machine, t power.Seconds) {
		for ci, s := range states {
			cl := mach.Cluster(ci)
			run := cl.Run()
			if run != nil && run.Done() {
				rec := RunRecord{
					Index:             len(s.completed),
					Duration:          run.Elapsed(),
					MeanPower:         cl.RunMeanPower(),
					UncappedMeanPower: run.UncappedMeanPower(),
				}
				rec.Satisfaction = metrics.Satisfaction(rec.MeanPower, rec.UncappedMeanPower)
				s.completed = append(s.completed, rec)
				cl.SetRun(nil)
				s.nextStart = t + cfg.DT + cfg.Gap
			}
		}
	}
	res, err := Drive(cfg, factory, done, launch, harvest)
	if err != nil {
		return PairResult{}, err
	}
	res.A = summarize(states[0])
	res.B = summarize(states[1])
	res.Fairness = metrics.Fairness(res.A.MeanSatisfaction, res.B.MeanSatisfaction)
	return res, nil
}

// Drive is the closed loop every experiment engine runs: build the machine
// and its manager, then per decision interval dispatch, advance the
// platform under the current caps, harvest, and take one controller step,
// until done reports true or the MaxSteps or MaxTime stop fires. dispatch
// and harvest are the caller's job scheduling; both see the machine and
// the virtual time the interval starts at. cfg's loop fields (see
// PairConfig) are taken as given: defaults and validation are the
// caller's.
func Drive(cfg PairConfig, factory ManagerFactory, done func() bool,
	dispatch, harvest func(mach *cluster.Machine, t power.Seconds)) (PairResult, error) {
	l, err := newLoop(cfg, factory)
	if err != nil {
		return PairResult{}, err
	}
	for !done() {
		if cfg.MaxSteps > 0 && l.res.Steps >= cfg.MaxSteps {
			break
		}
		if l.res.SimTime >= cfg.MaxTime {
			l.res.TimedOut = true
			break
		}
		stepStart := time.Now()
		dispatch(l.mach, l.res.SimTime)
		readings, err := l.mach.Step(cfg.DT)
		if err != nil {
			return PairResult{}, err
		}
		harvest(l.mach, l.res.SimTime)
		if err := l.step(readings); err != nil {
			return PairResult{}, err
		}
		if cfg.Tracer.On() {
			// Scoped to the same trace id as the controller's stage spans:
			// DPS advances its round counter once per DecideStats call.
			cfg.Tracer.Record(uint64(l.res.Steps), trace.SpanSimStep, trace.LaneSim,
				-1, stepStart, time.Since(stepStart))
		}
	}
	return l.res, nil
}

// loop is what the controller steps of one experiment share.
type loop struct {
	cfg  PairConfig
	mach *cluster.Machine
	eng  *engine.Engine
	res  PairResult      // SimTime is the loop's clock
	rec  telemetry.Round // each step's round, retained and re-filled
}

func newLoop(cfg PairConfig, factory ManagerFactory) (*loop, error) {
	mach, err := cluster.NewMachine(cfg.Machine)
	if err != nil {
		return nil, err
	}
	mgr, err := factory(mach.Units(), cfg.Budget, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if err := mach.ApplyCaps(mgr.Caps()); err != nil {
		return nil, err
	}
	l := &loop{
		cfg:  cfg,
		mach: mach,
		eng:  engine.New(mgr),
		res:  PairResult{Manager: mgr.Name()},
	}
	if dps, ok := mgr.(*core.DPS); ok {
		l.res.Stages = &StageBreakdown{}
		dps.SetTracer(cfg.Tracer)
	}
	return l, nil
}

// step is the controller pass of one decision interval: the interval's
// readings in, one round of the engine dpsd decides and delivers with,
// caps programmed, and the round described on the record the daemon
// fills, which the budget check and the watchdog both read.
func (l *loop) step(readings power.Vector) error {
	rec := &l.rec
	rec.Reset()
	rec.Round = uint64(l.res.Steps + 1)
	// Virtual time on the Unix epoch: see PairConfig.Watcher.
	rec.Time = time.Unix(0, 0).Add(time.Duration(float64(l.res.SimTime) * float64(time.Second))).UTC()
	d, stats := l.eng.Decide(core.Snapshot{Power: readings, Interval: l.cfg.DT, Demand: l.mach.TrueDemands()})
	rec.Stats = stats
	if l.res.Stages != nil {
		l.res.Stages.Add(stats)
	}
	rec.Fill(d)
	if rec.CapSumW > rec.BudgetW+1e-6 {
		l.res.BudgetViolations++
	}
	if err := l.mach.ApplyCaps(d.Delivered); err != nil {
		return err
	}
	l.eng.Commit(d.Delivered, nil)
	// Audited before StepHook so a hook can read the alert state the step
	// produced.
	l.cfg.Watcher.ObserveRound(rec)
	if l.cfg.StepHook != nil {
		l.cfg.StepHook(l.res.SimTime, rec)
	}
	l.res.SimTime += l.cfg.DT
	l.res.Steps++
	return nil
}

func summarize(s *clusterState) ClusterResult {
	out := ClusterResult{Workload: s.spec.Name, Runs: s.completed}
	if len(s.completed) == 0 {
		return out
	}
	durs := make([]power.Seconds, len(s.completed))
	sats := make([]float64, len(s.completed))
	for i, r := range s.completed {
		durs[i] = r.Duration
		sats[i] = r.Satisfaction
	}
	out.MeanDuration = metrics.MeanDurations(durs)
	out.HMeanDuration = metrics.HMeanDurations(durs)
	out.MeanSatisfaction = metrics.Mean(sats)
	return out
}
