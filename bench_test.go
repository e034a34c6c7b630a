// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6), plus microbenchmarks of each controller stage and of the §6.5
// overhead claims. Figure benches report the experiment's headline numbers
// as custom metrics (gain_pct, fairness) so `go test -bench` output doubles
// as a results table; EXPERIMENTS.md records a paper-vs-measured index.
//
// Experiment benches use 2 repeats per pair to keep one benchmark
// iteration to seconds; run `cmd/dps-sim -exp all -repeats 10` for
// paper-scale statistics.
package dps_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"dps"
	"dps/internal/core"
	"dps/internal/exp"
	"dps/internal/hier"
	"dps/internal/history"
	"dps/internal/kalman"
	"dps/internal/power"
	"dps/internal/priority"
	"dps/internal/proto"
	"dps/internal/signal"
	"dps/internal/stateless"
	"dps/internal/trace"
	"dps/internal/workload"
)

func benchOpts() exp.Options { return exp.Options{Repeats: 2, Seed: 11} }

// BenchmarkFigure1Motivation replays the two-unit motivational scenario
// under all four policies (E1).
func BenchmarkFigure1Motivation(b *testing.B) {
	var imbalance power.Watts
	for i := 0; i < b.N; i++ {
		mot, err := exp.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		imbalance = mot.FinalImbalance("SLURM") - mot.FinalImbalance("DPS")
	}
	b.ReportMetric(float64(imbalance), "slurm_minus_dps_imbalance_w")
}

// BenchmarkFigure2Traces generates the three power-phase traces (E2).
func BenchmarkFigure2Traces(b *testing.B) {
	var samples int
	for i := 0; i < b.N; i++ {
		traces, err := exp.Figure2(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		samples = 0
		for _, tr := range traces {
			samples += len(tr.Power)
		}
	}
	b.ReportMetric(float64(samples), "trace_samples")
}

// BenchmarkTable2SparkBaseline measures all Spark workloads under constant
// allocation (E3).
func BenchmarkTable2SparkBaseline(b *testing.B) {
	opts := exp.Options{Repeats: 1, Seed: 11}
	var worst float64
	for i := 0; i < b.N; i++ {
		res, err := exp.Table2(opts)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, row := range res.Rows {
			rel := row.Values["duration_s"]/row.Values["paper_s"] - 1
			if rel < 0 {
				rel = -rel
			}
			if rel > worst {
				worst = rel
			}
		}
	}
	b.ReportMetric(worst*100, "worst_duration_error_pct")
}

// BenchmarkTable4NPBBaseline measures all NPB workloads under constant
// allocation (E4).
func BenchmarkTable4NPBBaseline(b *testing.B) {
	opts := exp.Options{Repeats: 1, Seed: 11}
	var worst float64
	for i := 0; i < b.N; i++ {
		res, err := exp.Table4(opts)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, row := range res.Rows {
			rel := row.Values["duration_s"]/row.Values["paper_s"] - 1
			if rel < 0 {
				rel = -rel
			}
			if rel > worst {
				worst = rel
			}
		}
	}
	b.ReportMetric(worst*100, "worst_duration_error_pct")
}

// BenchmarkFigure4LowUtility runs the 28-pair low-utility experiment (E5).
func BenchmarkFigure4LowUtility(b *testing.B) {
	var dpsMean float64
	for i := 0; i < b.N; i++ {
		res, err := exp.Figure4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, row := range res.Rows {
			sum += row.Values["DPS"]
		}
		dpsMean = sum / float64(len(res.Rows))
	}
	b.ReportMetric((dpsMean-1)*100, "dps_gain_pct")
}

// BenchmarkFigure5HighUtility runs the GMM-paired high-utility experiment
// (E6).
func BenchmarkFigure5HighUtility(b *testing.B) {
	var dpsOverSlurm float64
	for i := 0; i < b.N; i++ {
		_, fb, err := exp.Figure5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, row := range fb.Rows {
			sum += row.Values["DPS"]/row.Values["SLURM"] - 1
		}
		dpsOverSlurm = sum / float64(len(fb.Rows))
	}
	b.ReportMetric(dpsOverSlurm*100, "dps_over_slurm_pct")
}

// BenchmarkFigure6SparkNPB runs the 56-pair Spark × NPB experiment (E7).
func BenchmarkFigure6SparkNPB(b *testing.B) {
	var dpsMean float64
	for i := 0; i < b.N; i++ {
		fa, _, err := exp.Figure6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, row := range fa.Rows {
			sum += row.Values["DPS"]
		}
		dpsMean = sum / float64(len(fa.Rows))
	}
	b.ReportMetric((dpsMean-1)*100, "dps_gain_pct")
}

// BenchmarkFigure7Fairness runs the fairness analysis (E8).
func BenchmarkFigure7Fairness(b *testing.B) {
	var dpsFair, slurmFair float64
	for i := 0; i < b.N; i++ {
		res, err := exp.Figure7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			switch row.Name {
			case "high-utility/DPS":
				dpsFair = row.Values["mean"]
			case "high-utility/SLURM":
				slurmFair = row.Values["mean"]
			}
		}
	}
	b.ReportMetric(dpsFair, "dps_fairness")
	b.ReportMetric(slurmFair, "slurm_fairness")
}

// BenchmarkSweepPowerLimits runs the multi-budget sweep (the evaluation
// the paper leaves as future work; E11 in DESIGN.md).
func BenchmarkSweepPowerLimits(b *testing.B) {
	var tightMargin float64
	for i := 0; i < b.N; i++ {
		res, err := exp.Sweep(benchOpts(), []float64{0.5, 0.667, 0.85})
		if err != nil {
			b.Fatal(err)
		}
		tightMargin = res.Rows[0].Values["dps_over_slurm"]
	}
	b.ReportMetric(tightMargin*100, "dps_over_slurm_at_50pct_tdp")
}

// BenchmarkDRAMStudy runs the package/DRAM plane-splitting study (E15).
func BenchmarkDRAMStudy(b *testing.B) {
	var memGain float64
	for i := 0; i < b.N; i++ {
		res, err := exp.DRAMStudy(exp.Options{Repeats: 1, Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Name == "memory" {
				memGain = row.Values["Static(85/15)"]/row.Values["Dynamic"] - 1
			}
		}
	}
	b.ReportMetric(memGain*100, "dynamic_gain_on_memory_pct")
}

// BenchmarkBaselinesExperiment runs the widened manager lineup (E14).
func BenchmarkBaselinesExperiment(b *testing.B) {
	var fbVsSlurm float64
	for i := 0; i < b.N; i++ {
		res, err := exp.Baselines(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Name == "MEAN" {
				fbVsSlurm = row.Values["Feedback"]/row.Values["SLURM"] - 1
			}
		}
	}
	b.ReportMetric(fbVsSlurm*100, "feedback_over_slurm_pct")
}

// BenchmarkThroughputExperiment runs the job-stream study (E13).
func BenchmarkThroughputExperiment(b *testing.B) {
	var dpsVsConst float64
	for i := 0; i < b.N; i++ {
		res, err := exp.Throughput(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var dpsT, constT float64
		for _, row := range res.Rows {
			switch row.Name {
			case "DPS":
				dpsT = row.Values["turnaround_s"]
			case "Constant":
				constT = row.Values["turnaround_s"]
			}
		}
		if dpsT > 0 {
			dpsVsConst = constT/dpsT - 1
		}
	}
	b.ReportMetric(dpsVsConst*100, "dps_turnaround_gain_pct")
}

// --- §6.5 overhead: the controller decision loop at scale (E9) ---

func benchControllerLoop(b *testing.B, units int) {
	budget := power.Budget{Total: power.Watts(units) * 110, UnitMax: 165, UnitMin: 10}
	cfg := core.DefaultConfig(units, budget)
	d, err := core.NewDPS(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	readings := make(power.Vector, units)
	for i := range readings {
		readings[i] = power.Watts(40 + rng.Float64()*120)
	}
	snap := core.Snapshot{Power: readings, Interval: 1}
	for i := 0; i < 25; i++ { // fill the history
		d.Decide(snap)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readings[i%units] += power.Watts(rng.NormFloat64() * 2)
		d.Decide(snap)
	}
}

func BenchmarkControllerLoop20(b *testing.B)    { benchControllerLoop(b, 20) }
func BenchmarkControllerLoop200(b *testing.B)   { benchControllerLoop(b, 200) }
func BenchmarkControllerLoop2000(b *testing.B)  { benchControllerLoop(b, 2000) }
func BenchmarkControllerLoop20000(b *testing.B) { benchControllerLoop(b, 20000) }

// BenchmarkDecideScaling prices one decision round at cluster scale.
// Sub-benchmark names are stable so CI can select one size:
//
//	go test -bench 'DecideScaling/N=4096' -benchtime 1x .
//
// N=<units> is the default controller on a trace where one reading moves
// per round; N=<units>/refresh=1 is the same trace through the reference
// configuration that processes every unit every round (the price of never
// skipping); N=<units>/dirty=<pct> drives ingest-style dirty masks at
// three dirty fractions; N=<units>/phased is the round the end-to-end
// benchmark's dense workloads put on the controller (phasedTrace) — the
// only row whose histories carry phase steps, meter noise and cap-shaped
// power, so the only one in which the frequency detector has work to do.
// Each row reports allocations (steady state must be 0 — the regression
// test in internal/core pins it) and all but the dirty rows a
// priority_ns/kalman_ns split so the per-PR trajectory of the per-unit
// stages is visible; scripts/bench_decide.sh turns this output into
// BENCH_decide.json.
func BenchmarkDecideScaling(b *testing.B) {
	for _, units := range []int{1024, 4096, 16384, 65536, 262144} {
		budget := power.Budget{Total: power.Watts(units) * 110, UnitMax: 165, UnitMin: 10}
		for _, refresh := range []int{0, 1} {
			name := fmt.Sprintf("N=%d", units)
			if refresh != 0 {
				name = fmt.Sprintf("N=%d/refresh=%d", units, refresh)
			}
			b.Run(name, func(b *testing.B) {
				cfg := core.DefaultConfig(units, budget)
				cfg.SparseRefreshEvery = refresh
				d, err := core.NewDPS(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(1))
				readings := make(power.Vector, units)
				for i := range readings {
					readings[i] = power.Watts(40 + rng.Float64()*120)
				}
				snap := core.Snapshot{Power: readings, Interval: 1}
				for i := 0; i < 25; i++ { // fill the history
					d.Decide(snap)
				}
				var priorityNS, kalmanNS time.Duration
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					readings[i%units] += power.Watts(rng.NormFloat64() * 2)
					_, st := d.DecideStats(snap)
					priorityNS += st.Timings.Priority
					kalmanNS += st.Timings.Kalman
				}
				b.ReportMetric(float64(priorityNS.Nanoseconds())/float64(b.N), "priority_ns")
				b.ReportMetric(float64(kalmanNS.Nanoseconds())/float64(b.N), "kalman_ns")
			})
		}
	}

	// Dirty-fraction rows: the deployed configuration (dirty masks from
	// ingest) at three dirty fractions. dirty=100 is the worst case —
	// every unit changes every round, so the skip bookkeeping runs with
	// nothing to skip; dirty=5 is the overprovisioned
	// steady state the design targets, where 95% of units report no
	// change and the round touches only the dirty set, the refresh block
	// and the global stages.
	for _, units := range []int{16384, 65536, 262144} {
		budget := power.Budget{Total: power.Watts(units) * 110, UnitMax: 165, UnitMin: 10}
		for _, pct := range []int{100, 50, 5} {
			b.Run(fmt.Sprintf("N=%d/dirty=%d", units, pct), func(b *testing.B) {
				d, err := core.NewDPS(core.DefaultConfig(units, budget))
				if err != nil {
					b.Fatal(err)
				}
				readings := make(power.Vector, units)
				for u := range readings {
					readings[u] = power.Watts(40 + u%40)
				}
				// The dirty set: contiguous 64-unit blocks spread evenly
				// across the range, the shape delta-suppressing agents
				// produce (whole busy nodes among quiet ones).
				nDirty := units * pct / 100
				dirty := make([]int, 0, nDirty)
				mask := core.NewDirtyMask(units)
				if pct == 100 {
					for u := 0; u < units; u++ {
						dirty = append(dirty, u)
					}
				} else {
					blocks := nDirty / 64
					stride := units / blocks
					for blk := 0; blk < blocks; blk++ {
						for j := 0; j < 64; j++ {
							dirty = append(dirty, blk*stride+j)
						}
					}
				}
				// Dirty units warm up at their oscillation mean so their
				// caps converge into the MIMD dead band before the timer
				// starts — the steady state the rounds then measure is
				// pipeline work, not cap churn.
				for _, u := range dirty {
					readings[u] = 94
				}
				// First round: everything is new (the handshake burst)...
				first := core.NewDirtyMask(units)
				for u := range readings {
					first.Mark(u)
				}
				d.Decide(core.Snapshot{Power: readings, Interval: 1, Dirty: first})
				// ...then quiet rounds until the clean majority settles
				// (rings uniform, Kalman filters at their fixed points).
				empty := core.NewDirtyMask(units)
				for i := 0; i < 200; i++ {
					d.Decide(core.Snapshot{Power: readings, Interval: 1, Dirty: empty})
				}
				for _, u := range dirty {
					mask.Mark(u)
				}
				snap := core.Snapshot{Power: readings, Interval: 1, Dirty: mask}
				var skipped, dirtyCount uint64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// In-band oscillation: every dirty unit's reading moves
					// every round, comfortably under its cap, so the rounds
					// measure per-unit pipeline work rather than budget
					// churn.
					for _, u := range dirty {
						readings[u] = power.Watts(92 + (u*7+i*13)%5)
					}
					_, st := d.DecideStats(snap)
					skipped += uint64(st.SkippedUnits)
					dirtyCount += uint64(st.DirtyUnits)
				}
				b.ReportMetric(float64(skipped)/float64(b.N), "skipped_units")
				b.ReportMetric(float64(dirtyCount)/float64(b.N), "dirty_units")
			})
		}
	}
	// Phased rows: closed-loop job-phase traffic. Every reading moves
	// every round, so nothing is skipped, and the rounds price the
	// per-unit stages on the histories a busy cluster actually produces;
	// priority_ns here is what bench's core.priority_ms reads on dense16k.
	for _, units := range []int{16384, 65536} {
		budget := power.Budget{Total: power.Watts(units) * 110, UnitMax: 165, UnitMin: 10}
		b.Run(fmt.Sprintf("N=%d/phased", units), func(b *testing.B) {
			d, err := core.NewDPS(core.DefaultConfig(units, budget))
			if err != nil {
				b.Fatal(err)
			}
			g := newPhasedTrace(units, 1)
			readings := make(power.Vector, units)
			caps := power.NewVector(units, 110)
			snap := core.Snapshot{Power: readings, Interval: 1}
			// Past the longest phase, so every history ring has wrapped
			// and every job has stepped at least once.
			for i := 0; i < 150; i++ {
				g.step(readings, caps)
				caps = d.Decide(snap)
			}
			var priorityNS, kalmanNS time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g.step(readings, caps)
				b.StartTimer()
				var st core.RoundStats
				caps, st = d.DecideStats(snap)
				priorityNS += st.Timings.Priority
				kalmanNS += st.Timings.Kalman
			}
			b.ReportMetric(float64(priorityNS.Nanoseconds())/float64(b.N), "priority_ns")
			b.ReportMetric(float64(kalmanNS.Nanoseconds())/float64(b.N), "kalman_ns")
		})
	}
}

// phasedTrace is the end-to-end benchmark's demand generator
// (bench/workload.go, which this package may not import) in miniature:
// jobs of 64–512 contiguous units alternate 130–160 W and 50–80 W phases
// of 20–120 rounds, units of a job differ by a fixed ±3 W, and every
// reading is min(demand, the cap decided last round) plus σ = 2 W meter
// noise.
type phasedTrace struct {
	rng    *rand.Rand
	jobs   []phasedJob
	offset []float64
}

type phasedJob struct {
	first, n, left int
	high           bool
	level          float64
}

func newPhasedTrace(units int, seed int64) *phasedTrace {
	g := &phasedTrace{rng: rand.New(rand.NewSource(seed)), offset: make([]float64, units)}
	for u := range g.offset {
		g.offset[u] = g.rng.Float64()*6 - 3
	}
	for first := 0; first < units; {
		n := 64 + g.rng.Intn(512-64+1)
		if first+n > units {
			n = units - first
		}
		j := phasedJob{first: first, n: n, high: g.rng.Intn(2) == 0}
		g.nextPhase(&j)
		j.left = 1 + g.rng.Intn(j.left) // desynchronise the first transitions
		g.jobs = append(g.jobs, j)
		first += n
	}
	return g
}

func (g *phasedTrace) nextPhase(j *phasedJob) {
	j.high = !j.high
	j.level = 50 + g.rng.Float64()*30
	if j.high {
		j.level += 80
	}
	j.left = 20 + g.rng.Intn(101)
}

// step advances every job one round and writes the round's readings,
// clipped at caps.
func (g *phasedTrace) step(readings, caps power.Vector) {
	for i := range g.jobs {
		j := &g.jobs[i]
		if j.left == 0 {
			g.nextPhase(j)
		}
		j.left--
		for u := j.first; u < j.first+j.n; u++ {
			draw := j.level + g.offset[u]
			if c := float64(caps[u]); draw > c {
				draw = c
			}
			readings[u] = power.Watts(math.Max(0, draw+g.rng.NormFloat64()*2))
		}
	}
}

// BenchmarkDecideTraceOverhead measures what span recording costs the
// decision loop: the same steady-state workload with the recorder off
// (the production default; must stay allocation-free — the regression
// test in internal/core pins 0 allocs/op) and with it on. The off/on
// delta is the §6.5-style overhead number scripts/bench_decide.sh
// reports as its tracing column.
func BenchmarkDecideTraceOverhead(b *testing.B) {
	const units = 4096
	for _, on := range []bool{false, true} {
		name := "tracer=off"
		if on {
			name = "tracer=on"
		}
		b.Run(name, func(b *testing.B) {
			budget := power.Budget{Total: power.Watts(units) * 110, UnitMax: 165, UnitMin: 10}
			d, err := core.NewDPS(core.DefaultConfig(units, budget))
			if err != nil {
				b.Fatal(err)
			}
			rec := trace.NewRecorder(trace.DefaultSpanCapacity)
			rec.SetEnabled(on)
			d.SetTracer(rec)
			rng := rand.New(rand.NewSource(1))
			readings := make(power.Vector, units)
			for i := range readings {
				readings[i] = power.Watts(40 + rng.Float64()*120)
			}
			snap := core.Snapshot{Power: readings, Interval: 1}
			for i := 0; i < 25; i++ { // fill the history
				d.Decide(snap)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				readings[i%units] += power.Watts(rng.NormFloat64() * 2)
				d.Decide(snap)
			}
		})
	}
}

// benchControllerStages reports where a decision step's time goes, using
// the controller's own per-stage instrumentation: kalman_ns, stateless_ns,
// priority_ns, readjust_ns custom metrics alongside ns/op.
func benchControllerStages(b *testing.B, units int) {
	budget := power.Budget{Total: power.Watts(units) * 110, UnitMax: 165, UnitMin: 10}
	d, err := core.NewDPS(core.DefaultConfig(units, budget))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	readings := make(power.Vector, units)
	for i := range readings {
		readings[i] = power.Watts(40 + rng.Float64()*120)
	}
	snap := core.Snapshot{Power: readings, Interval: 1}
	for i := 0; i < 25; i++ {
		d.Decide(snap)
	}
	var stages core.StageTimings
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readings[i%units] += power.Watts(rng.NormFloat64() * 2)
		_, st := d.DecideStats(snap)
		stages.Kalman += st.Timings.Kalman
		stages.Stateless += st.Timings.Stateless
		stages.Priority += st.Timings.Priority
		stages.Readjust += st.Timings.Readjust
	}
	n := float64(b.N)
	b.ReportMetric(float64(stages.Kalman.Nanoseconds())/n, "kalman_ns")
	b.ReportMetric(float64(stages.Stateless.Nanoseconds())/n, "stateless_ns")
	b.ReportMetric(float64(stages.Priority.Nanoseconds())/n, "priority_ns")
	b.ReportMetric(float64(stages.Readjust.Nanoseconds())/n, "readjust_ns")
}

func BenchmarkControllerStages20(b *testing.B)   { benchControllerStages(b, 20) }
func BenchmarkControllerStages2000(b *testing.B) { benchControllerStages(b, 2000) }

// benchHierLoop measures the two-level controller at scale; compare with
// the flat controller at the same unit count.
func benchHierLoop(b *testing.B, groups, unitsPerGroup int) {
	units := groups * unitsPerGroup
	budget := power.Budget{Total: power.Watts(units) * 110, UnitMax: 165, UnitMin: 10}
	cfg := hier.DefaultConfig(groups, unitsPerGroup, budget)
	m, err := hier.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	readings := make(power.Vector, units)
	for i := range readings {
		readings[i] = power.Watts(40 + rng.Float64()*120)
	}
	snap := core.Snapshot{Power: readings, Interval: 1}
	for i := 0; i < 25; i++ {
		m.Decide(snap)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readings[i%units] += power.Watts(rng.NormFloat64() * 2)
		m.Decide(snap)
	}
}

func BenchmarkHierLoop20x1000(b *testing.B) { benchHierLoop(b, 20, 1000) }
func BenchmarkHierLoop100x200(b *testing.B) { benchHierLoop(b, 100, 200) }

// BenchmarkHierarchyExperiment runs the two-level-vs-flat study (DESIGN.md
// E12).
func BenchmarkHierarchyExperiment(b *testing.B) {
	var kept float64
	for i := 0; i < b.N; i++ {
		res, err := exp.Hierarchy(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Name == "MEAN" {
				flat, hr := row.Values["DPS"]-1, row.Values["HierDPS"]-1
				if flat > 0 {
					kept = hr / flat
				}
			}
		}
	}
	b.ReportMetric(kept*100, "gain_retention_pct")
}

// BenchmarkProtoRoundTrip measures one node's wire work per decision round
// (report batch out, cap batch in — 2 sockets, the paper's 3-byte records).
func BenchmarkProtoRoundTrip(b *testing.B) {
	vals := []power.Watts{110.5, 87.3}
	buf := make([]byte, 2*proto.RecordSize)
	dst := make([]power.Watts, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for u, v := range vals {
			proto.PutRecord(buf[u*proto.RecordSize:], proto.Record{LocalUnit: uint8(u), Value: proto.ToDeciwatts(v)})
		}
		for u := range dst {
			rec := proto.GetRecord(buf[u*proto.RecordSize:])
			dst[rec.LocalUnit] = proto.FromDeciwatts(rec.Value)
		}
	}
	b.ReportMetric(float64(len(buf)), "bytes_per_direction")
}

// --- controller-stage microbenchmarks ---

func BenchmarkKalmanStep(b *testing.B) {
	f, err := kalman.New(kalman.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		f.Step(power.Watts(100 + i%20))
	}
}

func BenchmarkPeakDetection(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]power.Watts, 20) // the default history length
	for i := range xs {
		xs[i] = power.Watts(60 + rng.Float64()*100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		signal.CountProminentPeaks(xs, 20)
	}
}

func BenchmarkStatelessStep(b *testing.B) {
	m, err := stateless.New(stateless.DefaultConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	budget := power.Budget{Total: 2200, UnitMax: 165, UnitMin: 10}
	caps := power.NewVector(20, 110)
	readings := make(power.Vector, 20)
	rng := rand.New(rand.NewSource(1))
	for i := range readings {
		readings[i] = power.Watts(40 + rng.Float64()*120)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Apply(readings, caps, budget)
	}
}

func BenchmarkPriorityUpdate(b *testing.B) {
	const units = 20
	m, err := priority.New(priority.DefaultConfig(), units)
	if err != nil {
		b.Fatal(err)
	}
	hist := history.NewSet(units, 20)
	rng := rand.New(rand.NewSource(1))
	for u := 0; u < units; u++ {
		for s := 0; s < 20; s++ {
			hist.Push(power.UnitID(u), power.Watts(60+rng.Float64()*100), 1)
		}
	}
	readings := power.NewVector(units, 100)
	caps := power.NewVector(units, 110)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for u := 0; u < units; u++ {
			m.UpdateUnit(power.UnitID(u), hist.Unit(power.UnitID(u)), readings[u], caps[u], 110)
		}
	}
}

// BenchmarkMachineStep measures the simulated platform itself: one
// discrete-time step of the 20-socket machine with two active workloads.
func BenchmarkMachineStep(b *testing.B) {
	m, err := dps.NewMachine(dps.DefaultMachineConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	gmm, err := dps.WorkloadByName("GMM")
	if err != nil {
		b.Fatal(err)
	}
	lda, err := dps.WorkloadByName("LDA")
	if err != nil {
		b.Fatal(err)
	}
	m.Cluster(0).SetRun(dps.NewWorkloadRun(gmm, rng))
	m.Cluster(1).SetRun(dps.NewWorkloadRun(lda, rng))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Step(1); err != nil {
			b.Fatal(err)
		}
		// Keep the clusters busy across long benches.
		if r := m.Cluster(0).Run(); r == nil || r.Done() {
			m.Cluster(0).SetRun(dps.NewWorkloadRun(gmm, rng))
		}
		if r := m.Cluster(1).Run(); r == nil || r.Done() {
			m.Cluster(1).SetRun(dps.NewWorkloadRun(lda, rng))
		}
	}
}

// BenchmarkPairExperiment measures a complete small co-execution
// experiment end to end (workload generation, closed-loop control,
// metrics).
func BenchmarkPairExperiment(b *testing.B) {
	a, err := dps.WorkloadByName("Sort")
	if err != nil {
		b.Fatal(err)
	}
	w, err := dps.WorkloadByName("Wordcount")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := dps.RunPair(dps.PairConfig{
			WorkloadA: a, WorkloadB: w, Repeats: 2, Seed: int64(i + 1),
		}, dps.DPSFactory())
		if err != nil {
			b.Fatal(err)
		}
		if res.BudgetViolations != 0 {
			b.Fatalf("budget violated %d times", res.BudgetViolations)
		}
	}
}

// --- ablation benches: the design choices DESIGN.md calls out, measured
// on the hardest pair (LDA + GMM under contention) ---

func benchAblation(b *testing.B, modify func(*core.Config)) {
	lda, err := dps.WorkloadByName("LDA")
	if err != nil {
		b.Fatal(err)
	}
	gmm, err := dps.WorkloadByName("GMM")
	if err != nil {
		b.Fatal(err)
	}
	cfg := dps.PairConfig{WorkloadA: lda, WorkloadB: gmm, Repeats: 2, Seed: 7}
	var gain float64
	for i := 0; i < b.N; i++ {
		base, err := dps.RunPair(cfg, dps.ConstantFactory())
		if err != nil {
			b.Fatal(err)
		}
		res, err := dps.RunPair(cfg, dps.DPSFactoryWith(modify))
		if err != nil {
			b.Fatal(err)
		}
		sa, err := dps.Speedup(base.A.HMeanDuration, res.A.HMeanDuration)
		if err != nil {
			b.Fatal(err)
		}
		sb, err := dps.Speedup(base.B.HMeanDuration, res.B.HMeanDuration)
		if err != nil {
			b.Fatal(err)
		}
		gain = dps.HMean([]float64{sa, sb})
	}
	b.ReportMetric((gain-1)*100, "gain_over_constant_pct")
}

func BenchmarkAblationFullDPS(b *testing.B) { benchAblation(b, nil) }
func BenchmarkAblationNoKalman(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.DisableKalman = true })
}
func BenchmarkAblationNoFrequency(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.DisableFrequency = true })
}
func BenchmarkAblationNoRestore(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.DisableRestore = true })
}
func BenchmarkAblationNoPriority(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.DisablePriority = true })
}
func BenchmarkAblationNoAtCap(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.Priority.AtCapFraction = 0 })
}
func BenchmarkAblationHistory5(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.HistoryLen = 5 })
}
func BenchmarkAblationHistory60(b *testing.B) {
	benchAblation(b, func(c *core.Config) { c.HistoryLen = 60 })
}

// BenchmarkWorkloadGeneration measures phase-list generation for the whole
// catalog (the per-run cost of the workload substrate).
func BenchmarkWorkloadGeneration(b *testing.B) {
	specs := workload.All()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.NewRun(specs[i%len(specs)], rng)
	}
}
