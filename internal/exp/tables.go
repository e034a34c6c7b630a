package exp

import (
	"math/rand"

	"dps/internal/metrics"
	"dps/internal/power"
	"dps/internal/sim"
	"dps/internal/workload"
)

// tableFor measures each workload's baseline behaviour: the mean latency
// under constant 110 W/socket allocation (the paper's Duration column) and
// the fraction of uncapped time above 110 W (the Above-110W column). The
// constant-allocation run pairs the workload with itself — under fixed
// caps the partner cluster cannot influence the measurement.
func tableFor(opts Options, specs []*workload.Spec, id, title string) (Result, error) {
	opts = opts.withDefaults()
	res := Result{
		ID:      id,
		Title:   title,
		Columns: []string{"duration_s", "paper_s", "above110", "paper_f"},
	}
	constant := map[string]sim.ManagerFactory{"Constant": sim.ConstantFactory()}
	for _, spec := range specs {
		out, err := runPairAll(opts, spec, spec, power.Budget{}, 0, constant)
		if err != nil {
			return Result{}, err
		}
		base := out.results["Constant"]
		durs := append([]sim.RunRecord{}, base.A.Runs...)
		durs = append(durs, base.B.Runs...)
		var ds []power.Seconds
		for _, r := range durs {
			ds = append(ds, r.Duration)
		}

		// Above-110W comes from the uncapped demand model directly.
		rng := rand.New(rand.NewSource(opts.Seed))
		var above []float64
		for i := 0; i < opts.Repeats; i++ {
			run := workload.NewRun(spec, rng)
			above = append(above, run.FractionAbove(110))
		}

		res.Rows = append(res.Rows, Row{
			Name: spec.Name,
			Values: map[string]float64{
				"duration_s": float64(metrics.MeanDurations(ds)),
				"paper_s":    float64(spec.TableDuration),
				"above110":   metrics.Mean(above),
				"paper_f":    spec.TableAbove110,
			},
		})
	}
	return res, nil
}

// Table2 reproduces the Spark benchmark workload table (paper Table 2).
func Table2(opts Options) (Result, error) {
	return tableFor(opts, workload.Spark(), "Table 2",
		"Spark workloads under constant 110 W: measured vs paper")
}

// Table4 reproduces the NPB workload table (paper Table 4).
func Table4(opts Options) (Result, error) {
	return tableFor(opts, workload.NPBSuite(), "Table 4",
		"NPB workloads under constant 110 W: measured vs paper")
}

// Summary reproduces the key-results summary (paper §6.6): DPS's gain over
// SLURM across the two contended groups, reusing the Figure 5/6 pair
// protocol.
func Summary(opts Options) (Result, error) {
	opts = opts.withDefaults()
	factories := sim.StandardFactories(false)

	gmm, err := workload.ByName("GMM")
	if err != nil {
		return Result{}, err
	}
	type group struct {
		name  string
		pairs [][2]*workload.Spec
	}
	var groups []group
	var high group
	high.name = "high-utility"
	for _, w := range workload.MidHighSpark() {
		high.pairs = append(high.pairs, [2]*workload.Spec{w, gmm})
	}
	groups = append(groups, high)
	var snpb group
	snpb.name = "spark-npb"
	for _, sp := range workload.MidHighSpark() {
		for _, nb := range workload.NPBSuite() {
			snpb.pairs = append(snpb.pairs, [2]*workload.Spec{sp, nb})
		}
	}
	groups = append(groups, snpb)

	res := Result{
		ID:      "Section 6.6",
		Title:   "Summary: DPS gain over SLURM (pair hmean)",
		Columns: []string{"mean", "min", "max"},
	}
	for _, g := range groups {
		var diffs []float64
		for _, p := range g.pairs {
			out, err := runPairAll(opts, p[0], p[1], power.Budget{}, 0, factories)
			if err != nil {
				return Result{}, err
			}
			d, err := out.pairHMeanGain("DPS")
			if err != nil {
				return Result{}, err
			}
			s, err := out.pairHMeanGain("SLURM")
			if err != nil {
				return Result{}, err
			}
			diffs = append(diffs, d/s-1)
		}
		min, max, _ := metrics.MinMax(diffs)
		res.Rows = append(res.Rows, Row{
			Name: g.name,
			Values: map[string]float64{
				"mean": metrics.Mean(diffs),
				"min":  min,
				"max":  max,
			},
		})
	}
	res.Notes = append(res.Notes, "paper: DPS outperforms SLURM by 1.7%–21.3% in high-utility scenarios")
	return res, nil
}
