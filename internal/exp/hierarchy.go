package exp

import (
	"fmt"

	"dps/internal/metrics"
	"dps/internal/power"
	"dps/internal/sim"
	"dps/internal/workload"
)

// Hierarchy evaluates the two-level DPS extension against flat DPS and
// SLURM on representative contended pairs. Flat DPS is the accuracy
// ceiling — the hierarchy trades a bounded amount of cross-group agility
// (budgets move only at epoch boundaries) for per-level controller state
// that is constant in the group size. The experiment verifies the trade is
// small: the hierarchy should keep most of flat DPS's gain and stay above
// both SLURM and constant allocation.
func Hierarchy(opts Options) (Result, error) {
	opts = opts.withDefaults()
	factories := map[string]sim.ManagerFactory{
		"Constant": sim.ConstantFactory(),
		"SLURM":    sim.SLURMFactory(),
		"DPS":      sim.DPSFactory(),
		// 4 groups of 5 sockets: group boundaries cut through each
		// 10-socket cluster, the harder case for a hierarchy.
		"HierDPS": sim.HierarchicalDPSFactory(4, 5),
	}
	columns := []string{"SLURM", "DPS", "HierDPS"}

	pairs := [][2]string{
		{"LDA", "GMM"},
		{"Kmeans", "GMM"},
		{"LR", "GMM"},
		{"LDA", "BT"},
		{"Bayes", "SP"},
	}
	res := Result{
		ID:      "Hierarchy",
		Title:   "Two-level DPS vs flat DPS: pair hmean gain over constant",
		Columns: columns,
	}
	sums := map[string][]float64{}
	for _, p := range pairs {
		a, err := workload.ByName(p[0])
		if err != nil {
			return Result{}, err
		}
		b, err := workload.ByName(p[1])
		if err != nil {
			return Result{}, err
		}
		out, err := runPairAll(opts, a, b, power.Budget{}, 0, factories)
		if err != nil {
			return Result{}, err
		}
		row := Row{Name: p[0] + "+" + p[1], Values: map[string]float64{}}
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
	res.Notes = append(res.Notes, fmt.Sprintf(
		"hierarchy: 4 groups × 5 sockets, top-level budget reassignment every 5 s; flat DPS retained %.0f%% of its gain",
		retention(mean.Values["HierDPS"], mean.Values["DPS"])*100))
	return res, nil
}

func retention(hier, flat float64) float64 {
	if flat <= 1 {
		return 1
	}
	return (hier - 1) / (flat - 1)
}
