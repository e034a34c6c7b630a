package exp

import (
	"fmt"

	"dps/internal/core"
	"dps/internal/metrics"
	"dps/internal/power"
	"dps/internal/sim"
	"dps/internal/workload"
)

// Ablations evaluates the design choices DESIGN.md calls out by removing
// one DPS mechanism at a time and re-running a representative contended
// pair set (every mid/high Spark workload against GMM, plus two
// Spark × NPB pairs covering long- and short-duration NPB kernels).
// Values are pair harmonic-mean gains over constant allocation, so the
// full DPS column should dominate each ablated variant.
func Ablations(opts Options) (Result, error) {
	opts = opts.withDefaults()

	variants := map[string]sim.ManagerFactory{
		"Constant": sim.ConstantFactory(),
		"DPS":      sim.DPSFactory(),
		"NoKalman": sim.DPSFactoryWith(func(c *core.Config) {
			c.DisableKalman = true
		}),
		"NoFreq": sim.DPSFactoryWith(func(c *core.Config) {
			c.DisableFrequency = true
		}),
		"NoRestore": sim.DPSFactoryWith(func(c *core.Config) {
			c.DisableRestore = true
		}),
		"NoPrio": sim.DPSFactoryWith(func(c *core.Config) {
			c.DisablePriority = true
		}),
		"NoAtCap": sim.DPSFactoryWith(func(c *core.Config) {
			c.Priority.AtCapFraction = 0
		}),
		"Hist5": sim.DPSFactoryWith(func(c *core.Config) {
			c.HistoryLen = 5
		}),
		"Hist60": sim.DPSFactoryWith(func(c *core.Config) {
			c.HistoryLen = 60
		}),
	}
	columns := []string{"DPS", "NoKalman", "NoFreq", "NoRestore", "NoPrio", "NoAtCap", "Hist5", "Hist60"}

	gmm, err := workload.ByName("GMM")
	if err != nil {
		return Result{}, err
	}
	var pairs [][2]*workload.Spec
	for _, w := range workload.MidHighSpark() {
		pairs = append(pairs, [2]*workload.Spec{w, gmm})
	}
	for _, npbName := range []string{"BT", "FT"} {
		nb, err := workload.ByName(npbName)
		if err != nil {
			return Result{}, err
		}
		lda, err := workload.ByName("LDA")
		if err != nil {
			return Result{}, err
		}
		pairs = append(pairs, [2]*workload.Spec{lda, nb})
	}

	res := Result{
		ID:      "Ablations",
		Title:   "DPS mechanism ablations: pair hmean gain over constant",
		Columns: columns,
	}
	sums := map[string][]float64{}
	for _, p := range pairs {
		out, err := runPairAll(opts, p[0], p[1], power.Budget{}, 0, variants)
		if err != nil {
			return Result{}, err
		}
		row := Row{Name: p[0].Name + "+" + p[1].Name, Values: map[string]float64{}}
		for _, v := range columns {
			hm, err := out.pairHMeanGain(v)
			if err != nil {
				return Result{}, err
			}
			row.Values[v] = hm
			sums[v] = append(sums[v], hm)
		}
		res.Rows = append(res.Rows, row)
	}
	mean := Row{Name: "MEAN", Values: map[string]float64{}}
	for _, v := range columns {
		mean.Values[v] = metrics.Mean(sums[v])
	}
	res.Rows = append(res.Rows, mean)
	res.Notes = append(res.Notes, fmt.Sprintf("%d contended pairs; higher is better; full DPS should lead", len(pairs)))
	return res, nil
}
