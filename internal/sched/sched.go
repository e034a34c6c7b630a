// Package sched adds a job-scheduling substrate on top of the cluster
// simulator: a FIFO queue of workload jobs dispatched onto free clusters,
// all sharing one power budget under one power manager. The paper
// evaluates co-executed pairs; this generalizes to the steady job streams
// real overprovisioned systems run, the setting in which prior work
// (Ellsworth et al., "Dynamic power sharing for higher job throughput",
// SC '15, cited in §2.3) measures power management as *throughput*:
// makespan, turnaround, and waiting time over a whole job batch.
package sched

import (
	"fmt"
	"math/rand"
	"sort"

	"dps/internal/cluster"
	"dps/internal/metrics"
	"dps/internal/power"
	"dps/internal/sim"
	"dps/internal/watch"
	"dps/internal/workload"
)

// Job is one queued workload execution.
type Job struct {
	// ID is the job's position in the submission order.
	ID int
	// Workload is what runs.
	Workload *workload.Spec
	// Arrival is when the job enters the queue.
	Arrival power.Seconds
}

// Config describes a batch-scheduling experiment.
type Config struct {
	// Machine is the simulated platform. Unlike the pair engine, any
	// cluster count works; each job occupies one whole cluster.
	Machine cluster.Config
	// Budget is the cluster-wide power envelope (zero = 110 W per socket).
	Budget power.Budget
	// Jobs is the submission list (sorted by Arrival internally).
	Jobs []Job
	// DT is the decision interval (default 1 s).
	DT power.Seconds
	// Gap is the idle time a cluster needs between jobs (teardown/setup).
	Gap power.Seconds
	// Seed drives workload jitter and manager tie-breaking.
	Seed int64
	// MaxTime aborts a runaway experiment (zero = generous bound).
	MaxTime power.Seconds
	// Watcher, if non-nil, audits every step's round record, as the pair
	// engine's field of the same name does.
	Watcher *watch.Watcher
}

func (c Config) withDefaults() Config {
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
	if c.DT == 0 {
		c.DT = 1
	}
	if c.Gap == 0 {
		c.Gap = 8
	}
	if c.MaxTime == 0 {
		var total float64
		for _, j := range c.Jobs {
			total += float64(j.Workload.TableDuration)
		}
		// Serial execution on one cluster is the worst case; quadruple it.
		c.MaxTime = power.Seconds(total*4 + 3600)
	}
	return c
}

// Validate reports whether the experiment is runnable.
func (c Config) Validate() error {
	if len(c.Jobs) == 0 {
		return fmt.Errorf("sched: no jobs")
	}
	for _, j := range c.Jobs {
		if j.Workload == nil {
			return fmt.Errorf("sched: job %d has no workload", j.ID)
		}
		if j.Arrival < 0 {
			return fmt.Errorf("sched: job %d arrives at negative time %v", j.ID, j.Arrival)
		}
	}
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	return c.Budget.Validate(c.Machine.Units())
}

// JobResult is one completed job's timing.
type JobResult struct {
	Job
	// Start is when the job began executing on a cluster.
	Start power.Seconds
	// End is when it completed.
	End power.Seconds
	// Wait = Start − Arrival (queueing delay).
	Wait power.Seconds
	// Duration = End − Start (execution time under the manager's caps).
	Duration power.Seconds
	// Cluster is where it ran.
	Cluster int
}

// Result aggregates a batch run.
type Result struct {
	Manager string
	Jobs    []JobResult
	// Makespan is when the last job finished.
	Makespan power.Seconds
	// MeanTurnaround averages End − Arrival.
	MeanTurnaround power.Seconds
	// MeanWait averages queueing delay.
	MeanWait power.Seconds
	// ThroughputPerHour is completed jobs per simulated hour.
	ThroughputPerHour float64
	// Steps, BudgetViolations, TimedOut and Stages mirror the pair engine.
	Steps            int
	BudgetViolations int
	TimedOut         bool
	Stages           *sim.StageBreakdown
}

// Run executes the batch under the manager the factory builds.
func Run(cfg Config, factory sim.ManagerFactory) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	queue := append([]Job(nil), cfg.Jobs...)
	sort.SliceStable(queue, func(i, j int) bool { return queue[i].Arrival < queue[j].Arrival })

	type slot struct {
		job       Job
		busy      bool
		freeAt    power.Seconds
		startedAt power.Seconds
	}
	slots := make([]slot, cfg.Machine.Clusters)
	rng := rand.New(rand.NewSource(cfg.Seed*2_000_003 + 17))

	var res Result
	done := func() bool { return len(res.Jobs) >= len(cfg.Jobs) }
	// Dispatch arrived jobs onto free clusters (FIFO).
	dispatch := func(mach *cluster.Machine, t power.Seconds) {
		for ci := range slots {
			if slots[ci].busy || t < slots[ci].freeAt || len(queue) == 0 {
				continue
			}
			if queue[0].Arrival > t {
				break // FIFO: the head hasn't arrived yet
			}
			job := queue[0]
			queue = queue[1:]
			mach.Cluster(ci).SetRun(workload.NewRun(job.Workload, rng))
			slots[ci] = slot{job: job, busy: true, startedAt: t}
		}
	}
	// Harvest completions.
	harvest := func(mach *cluster.Machine, t power.Seconds) {
		for ci := range slots {
			if !slots[ci].busy {
				continue
			}
			run := mach.Cluster(ci).Run()
			if run == nil || !run.Done() {
				continue
			}
			end := t + cfg.DT
			jr := JobResult{
				Job:      slots[ci].job,
				Start:    slots[ci].startedAt,
				End:      end,
				Wait:     slots[ci].startedAt - slots[ci].job.Arrival,
				Duration: run.Elapsed(),
				Cluster:  ci,
			}
			res.Jobs = append(res.Jobs, jr)
			mach.Cluster(ci).SetRun(nil)
			slots[ci] = slot{freeAt: end + cfg.Gap}
		}
	}
	run, err := sim.Drive(sim.PairConfig{
		Machine: cfg.Machine,
		Budget:  cfg.Budget,
		DT:      cfg.DT,
		Seed:    cfg.Seed,
		MaxTime: cfg.MaxTime,
		Watcher: cfg.Watcher,
	}, factory, done, dispatch, harvest)
	if err != nil {
		return Result{}, err
	}
	res.Manager, res.Steps, res.BudgetViolations = run.Manager, run.Steps, run.BudgetViolations
	res.TimedOut, res.Stages = run.TimedOut, run.Stages

	sort.Slice(res.Jobs, func(i, j int) bool { return res.Jobs[i].ID < res.Jobs[j].ID })
	var turn, wait []power.Seconds
	for _, j := range res.Jobs {
		if j.End > res.Makespan {
			res.Makespan = j.End
		}
		turn = append(turn, j.End-j.Arrival)
		wait = append(wait, j.Wait)
	}
	res.MeanTurnaround = metrics.MeanDurations(turn)
	res.MeanWait = metrics.MeanDurations(wait)
	if res.Makespan > 0 {
		res.ThroughputPerHour = float64(len(res.Jobs)) / float64(res.Makespan) * 3600
	}
	return res, nil
}

// RandomBatch draws n jobs from the given specs with exponential
// inter-arrival times of the given mean, deterministically for a seed.
func RandomBatch(specs []*workload.Spec, n int, meanInterarrival power.Seconds, seed int64) ([]Job, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("sched: no workloads to draw from")
	}
	if n <= 0 {
		return nil, fmt.Errorf("sched: non-positive batch size %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	var jobs []Job
	var t power.Seconds
	for i := 0; i < n; i++ {
		jobs = append(jobs, Job{
			ID:       i,
			Workload: specs[rng.Intn(len(specs))],
			Arrival:  t,
		})
		t += power.Seconds(rng.ExpFloat64() * float64(meanInterarrival))
	}
	return jobs, nil
}
