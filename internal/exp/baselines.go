package exp

import (
	"dps/internal/metrics"
	"dps/internal/power"
	"dps/internal/sim"
	"dps/internal/workload"
)

// Baselines widens the manager lineup beyond the paper's (E14): the
// high-utility GMM pairs replayed under constant allocation, SLURM, a
// PShifter-style feedback controller (the §2.2 feedback-model family), a
// Penelope-style peer-to-peer manager (§6.5's decentralized comparison),
// DPS, and the oracle. The expected ordering under contention:
//
//	SLURM < Feedback ≲ P2P ≲ DPS ≤ Oracle
//
// Feedback shifts power smoothly toward throttled units but cannot
// anticipate phases; P2P applies DPS-like trades pairwise and pays a
// gossip-speed convergence penalty; neither carries DPS's explicit
// constant-allocation lower bound.
func Baselines(opts Options) (Result, error) {
	opts = opts.withDefaults()
	factories := map[string]sim.ManagerFactory{
		"Constant": sim.ConstantFactory(),
		"SLURM":    sim.SLURMFactory(),
		"Feedback": sim.FeedbackFactory(),
		"P2P":      sim.P2PFactory(),
		"DPS":      sim.DPSFactory(),
		"Oracle":   sim.OracleFactory(),
	}
	columns := []string{"SLURM", "Feedback", "P2P", "DPS", "Oracle"}

	gmm, err := workload.ByName("GMM")
	if err != nil {
		return Result{}, err
	}
	res := Result{
		ID:      "Baselines",
		Title:   "Manager lineup on the high-utility GMM pairs: pair hmean gain",
		Columns: columns,
	}
	sums := map[string][]float64{}
	for _, w := range workload.MidHighSpark() {
		out, err := runPairAll(opts, w, gmm, power.Budget{}, 0, factories)
		if err != nil {
			return Result{}, err
		}
		row := Row{Name: w.Name, Values: map[string]float64{}}
		for _, mgr := range columns {
			hm, err := out.pairHMeanGain(mgr)
			if err != nil {
				return Result{}, err
			}
			row.Values[mgr] = hm
			sums[mgr] = append(sums[mgr], hm)
		}
		res.Rows = append(res.Rows, row)
	}
	mean := Row{Name: "MEAN", Values: map[string]float64{}}
	for _, mgr := range columns {
		mean.Values[mgr] = metrics.Mean(sums[mgr])
	}
	res.Rows = append(res.Rows, mean)
	return res, nil
}
