package exp

import (
	"fmt"

	"dps/internal/cluster"
	"dps/internal/metrics"
	"dps/internal/power"
	"dps/internal/sim"
	"dps/internal/workload"
)

// Sweep implements the evaluation the paper explicitly leaves open (§6:
// "experiments with multiple power limits lower than the TDP can provide a
// more comprehensive evaluation of DPS"): the same contended pairs under a
// range of cluster power limits, from near-starvation to near-TDP.
//
// Expected shape: at generous budgets every manager meets every demand and
// the gains converge; as the budget tightens, the stateless manager's
// unfairness costs more and DPS's margin over SLURM widens, until budgets
// are so tight that even fair allocations pin everything at the floor and
// the differences compress again.
func Sweep(opts Options, fractions []float64) (Result, error) {
	opts = opts.withDefaults()
	if len(fractions) == 0 {
		// 66.7 % is the paper's single operating point.
		fractions = []float64{0.50, 0.60, 0.667, 0.75, 0.85}
	}
	pairs := [][2]string{
		{"LDA", "GMM"},   // long phases vs sustained high power
		{"LR", "GMM"},    // high frequency vs sustained high power
		{"Kmeans", "BT"}, // Spark iterations vs NPB kernel
	}

	res := Result{
		ID:      "Sweep",
		Title:   "DPS and SLURM pair hmean gain vs cluster power limit (fraction of TDP)",
		Columns: []string{"SLURM", "DPS", "dps_over_slurm"},
	}
	factories := sim.StandardFactories(false)
	machine := cluster.DefaultConfig()

	for _, frac := range fractions {
		budget := power.Budget{
			Total:   power.Watts(float64(machine.Units()) * float64(machine.Rapl.TDP) * frac),
			UnitMax: machine.Rapl.TDP,
			UnitMin: machine.Rapl.MinCap,
		}
		var slurmGains, dpsGains []float64
		for _, p := range pairs {
			a, err := workload.ByName(p[0])
			if err != nil {
				return Result{}, err
			}
			b, err := workload.ByName(p[1])
			if err != nil {
				return Result{}, err
			}
			out, err := runPairAll(opts, a, b, budget, int64(frac*1000), factories)
			if err != nil {
				return Result{}, err
			}
			s, err := out.pairHMeanGain("SLURM")
			if err != nil {
				return Result{}, err
			}
			d, err := out.pairHMeanGain("DPS")
			if err != nil {
				return Result{}, err
			}
			slurmGains = append(slurmGains, s)
			dpsGains = append(dpsGains, d)
		}
		s := metrics.HMean(slurmGains)
		d := metrics.HMean(dpsGains)
		res.Rows = append(res.Rows, Row{
			Name: fmt.Sprintf("%.1f%% TDP", frac*100),
			Values: map[string]float64{
				"SLURM":          s,
				"DPS":            d,
				"dps_over_slurm": d/s - 1,
			},
		})
	}
	res.Notes = append(res.Notes,
		"constant allocation at the same limit is each column's baseline (gain 1.0)",
		"paper's operating point is 66.7% of TDP (110 W per 165 W socket)")
	return res, nil
}
