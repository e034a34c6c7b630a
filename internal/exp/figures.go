package exp

import (
	"fmt"

	"dps/internal/metrics"
	"dps/internal/power"
	"dps/internal/sim"
	"dps/internal/workload"
)

// Figure4 reproduces the Spark low-utility experiment (paper Figure 4):
// every mid/high-power Spark workload co-executed with every low-power
// micro workload (28 pairs), under Constant, SLURM, DPS, and the Oracle.
// Each row is the ML workload's harmonic-mean performance gain normalized
// to constant allocation.
func Figure4(opts Options) (Result, error) {
	opts = opts.withDefaults()
	mids := workload.MidHighSpark()
	lows := workload.LowSpark()
	factories := sim.StandardFactories(true)
	managers := []string{"SLURM", "DPS", "Oracle"}

	res := Result{
		ID:      "Figure 4",
		Title:   "Spark low utility: hmean gain over constant 110 W",
		Columns: managers,
	}
	perMgrAll := map[string][]float64{}
	for _, mid := range mids {
		gains := map[string][]float64{}
		for _, low := range lows {
			out, err := runPairAll(opts, mid, low, power.Budget{}, 0, factories)
			if err != nil {
				return Result{}, err
			}
			for _, mgr := range managers {
				sa, _, err := out.speedups(mgr)
				if err != nil {
					return Result{}, err
				}
				gains[mgr] = append(gains[mgr], sa)
			}
		}
		row := Row{Name: mid.Name, Values: map[string]float64{}}
		for _, mgr := range managers {
			v := metrics.HMean(gains[mgr])
			row.Values[mgr] = v
			perMgrAll[mgr] = append(perMgrAll[mgr], v)
		}
		res.Rows = append(res.Rows, row)
	}
	for _, mgr := range managers {
		mean := metrics.Mean(perMgrAll[mgr])
		min, max, _ := metrics.MinMax(perMgrAll[mgr])
		res.Notes = append(res.Notes, fmt.Sprintf("%s mean gain %+.1f%% (min %+.1f%%, max %+.1f%%)",
			mgr, (mean-1)*100, (min-1)*100, (max-1)*100))
	}
	return res, nil
}

// Figure5 reproduces the Spark high-utility experiment (paper Figure 5):
// every mid/high-power Spark workload paired with the high-power GMM.
// Figure 5a reports each paired workload's own gain; Figure 5b the
// harmonic mean of the workload's and GMM's gains. Both are returned,
// 5a first.
func Figure5(opts Options) (Result, Result, error) {
	opts = opts.withDefaults()
	factories := sim.StandardFactories(false)
	managers := []string{"SLURM", "DPS"}

	gmm, err := workload.ByName("GMM")
	if err != nil {
		return Result{}, Result{}, err
	}
	resA := Result{
		ID:      "Figure 5a",
		Title:   "Spark high utility: paired workload's own hmean gain",
		Columns: managers,
	}
	resB := Result{
		ID:      "Figure 5b",
		Title:   "Spark high utility: hmean gain of workload and its paired GMM",
		Columns: managers,
	}
	perMgrB := map[string][]float64{}
	for _, w := range workload.MidHighSpark() {
		out, err := runPairAll(opts, w, gmm, power.Budget{}, 0, factories)
		if err != nil {
			return Result{}, Result{}, err
		}
		rowA := Row{Name: w.Name, Values: map[string]float64{}}
		rowB := Row{Name: w.Name, Values: map[string]float64{}}
		for _, mgr := range managers {
			sa, _, err := out.speedups(mgr)
			if err != nil {
				return Result{}, Result{}, err
			}
			hm, err := out.pairHMeanGain(mgr)
			if err != nil {
				return Result{}, Result{}, err
			}
			rowA.Values[mgr] = sa
			rowB.Values[mgr] = hm
			perMgrB[mgr] = append(perMgrB[mgr], hm)
		}
		resA.Rows = append(resA.Rows, rowA)
		resB.Rows = append(resB.Rows, rowB)
	}
	var diffs []float64
	for i := range resB.Rows {
		diffs = append(diffs, resB.Rows[i].Values["DPS"]/resB.Rows[i].Values["SLURM"]-1)
	}
	resB.Notes = append(resB.Notes, fmt.Sprintf("DPS over SLURM: mean %+.1f%%, max %+.1f%%",
		metrics.Mean(diffs)*100, maxOf(diffs)*100))
	return resA, resB, nil
}

// Figure6 reproduces the Spark & NPB experiment (paper Figure 6): all 56
// pairs of {7 mid/high Spark} × {8 NPB} workloads. Figure 6a groups the
// per-pair harmonic-mean gains by the Spark workload, 6b by the NPB
// workload.
func Figure6(opts Options) (Result, Result, error) {
	opts = opts.withDefaults()
	factories := sim.StandardFactories(false)
	managers := []string{"SLURM", "DPS"}

	sparks := workload.MidHighSpark()
	npbs := workload.NPBSuite()

	bySpark := map[string]map[string][]float64{}
	byNPB := map[string]map[string][]float64{}
	var dpsOverSlurm []float64
	for _, sp := range sparks {
		bySpark[sp.Name] = map[string][]float64{}
		for _, nb := range npbs {
			if byNPB[nb.Name] == nil {
				byNPB[nb.Name] = map[string][]float64{}
			}
			out, err := runPairAll(opts, sp, nb, power.Budget{}, 0, factories)
			if err != nil {
				return Result{}, Result{}, err
			}
			pairGain := map[string]float64{}
			for _, mgr := range managers {
				hm, err := out.pairHMeanGain(mgr)
				if err != nil {
					return Result{}, Result{}, err
				}
				bySpark[sp.Name][mgr] = append(bySpark[sp.Name][mgr], hm)
				byNPB[nb.Name][mgr] = append(byNPB[nb.Name][mgr], hm)
				pairGain[mgr] = hm
			}
			dpsOverSlurm = append(dpsOverSlurm, pairGain["DPS"]/pairGain["SLURM"]-1)
		}
	}

	resA := Result{ID: "Figure 6a", Title: "Spark & NPB: pair hmean gain grouped by Spark workload", Columns: managers}
	for _, sp := range sparks {
		row := Row{Name: sp.Name, Values: map[string]float64{}}
		for _, mgr := range managers {
			row.Values[mgr] = metrics.HMean(bySpark[sp.Name][mgr])
		}
		resA.Rows = append(resA.Rows, row)
	}
	resB := Result{ID: "Figure 6b", Title: "Spark & NPB: pair hmean gain grouped by NPB workload", Columns: managers}
	for _, nb := range npbs {
		row := Row{Name: nb.Name, Values: map[string]float64{}}
		for _, mgr := range managers {
			row.Values[mgr] = metrics.HMean(byNPB[nb.Name][mgr])
		}
		resB.Rows = append(resB.Rows, row)
	}
	min, max, _ := metrics.MinMax(dpsOverSlurm)
	resA.Notes = append(resA.Notes, fmt.Sprintf("DPS over SLURM across all %d pairs: mean %+.1f%%, min %+.1f%%, max %+.1f%%",
		len(dpsOverSlurm), metrics.Mean(dpsOverSlurm)*100, min*100, max*100))
	return resA, resB, nil
}

// Figure7 reproduces the fairness analysis (paper Figure 7 and §6.4): the
// distribution of per-pair fairness under DPS and SLURM for the two
// contended groups. Rows are distribution statistics per group/manager.
func Figure7(opts Options) (Result, error) {
	opts = opts.withDefaults()
	factories := sim.StandardFactories(false)

	gather := func(pairs [][2]*workload.Spec) (map[string][]float64, error) {
		fair := map[string][]float64{}
		for _, p := range pairs {
			out, err := runPairAll(opts, p[0], p[1], power.Budget{}, 0, factories)
			if err != nil {
				return nil, err
			}
			for _, mgr := range []string{"SLURM", "DPS"} {
				fair[mgr] = append(fair[mgr], out.results[mgr].Fairness)
			}
		}
		return fair, nil
	}

	gmm, err := workload.ByName("GMM")
	if err != nil {
		return Result{}, err
	}
	var highPairs [][2]*workload.Spec
	for _, w := range workload.MidHighSpark() {
		highPairs = append(highPairs, [2]*workload.Spec{w, gmm})
	}
	var npbPairs [][2]*workload.Spec
	for _, sp := range workload.MidHighSpark() {
		for _, nb := range workload.NPBSuite() {
			npbPairs = append(npbPairs, [2]*workload.Spec{sp, nb})
		}
	}

	highFair, err := gather(highPairs)
	if err != nil {
		return Result{}, err
	}
	npbFair, err := gather(npbPairs)
	if err != nil {
		return Result{}, err
	}

	res := Result{
		ID:      "Figure 7",
		Title:   "Fairness distribution of the contended workload groups",
		Columns: []string{"mean", "min", "max"},
	}
	addRows := func(group string, fair map[string][]float64) {
		for _, mgr := range []string{"SLURM", "DPS"} {
			min, max, _ := metrics.MinMax(fair[mgr])
			res.Rows = append(res.Rows, Row{
				Name: fmt.Sprintf("%s/%s", group, mgr),
				Values: map[string]float64{
					"mean": metrics.Mean(fair[mgr]),
					"min":  min,
					"max":  max,
				},
			})
		}
	}
	addRows("high-utility", highFair)
	addRows("spark-npb", npbFair)
	res.Notes = append(res.Notes,
		fmt.Sprintf("high-utility mean fairness: DPS %.2f vs SLURM %.2f (paper: 0.97 vs 0.75)",
			metrics.Mean(highFair["DPS"]), metrics.Mean(highFair["SLURM"])),
		fmt.Sprintf("spark-npb mean fairness: DPS %.2f vs SLURM %.2f (paper: 0.96 vs 0.71)",
			metrics.Mean(npbFair["DPS"]), metrics.Mean(npbFair["SLURM"])))
	return res, nil
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
