// Package exp defines one entry per table and figure of the paper's
// evaluation (§6), each regenerating the corresponding rows from the
// simulated platform. DESIGN.md carries the experiment index (E1–E10)
// mapping each artifact to the modules and bench targets involved.
package exp

import (
	"fmt"
	"sort"
	"strings"

	"dps/internal/metrics"
	"dps/internal/power"
	"dps/internal/sim"
	"dps/internal/workload"
)

// Options scales every experiment. The paper repeats each workload at
// least 10 times over 1,000+ machine-hours; the simulator replays the same
// protocol in seconds, so Repeats trades precision for runtime.
type Options struct {
	// Repeats is the minimum completed runs per workload per pair.
	Repeats int
	// Seed drives all randomness.
	Seed int64
	// Progress, if non-nil, receives one line per finished pair.
	Progress func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Repeats == 0 {
		o.Repeats = 4
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(format, args...)
	}
}

// Row is one labeled row of an experiment result: a workload (or pair)
// name mapping to one value per manager/column.
type Row struct {
	Name   string
	Values map[string]float64
}

// Result is a rendered experiment: an ID matching the paper artifact,
// ordered columns, and rows.
type Result struct {
	ID      string
	Title   string
	Columns []string
	Rows    []Row
	// Notes carry derived aggregates ("mean DPS gain 8.0%") for
	// EXPERIMENTS.md.
	Notes []string
}

// Format renders the result as an aligned text table.
func (r Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	nameW := len("workload")
	for _, row := range r.Rows {
		if len(row.Name) > nameW {
			nameW = len(row.Name)
		}
	}
	fmt.Fprintf(&b, "  %-*s", nameW, "workload")
	for _, c := range r.Columns {
		fmt.Fprintf(&b, "  %10s", c)
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-*s", nameW, row.Name)
		for _, c := range r.Columns {
			v, ok := row.Values[c]
			if !ok {
				fmt.Fprintf(&b, "  %10s", "-")
				continue
			}
			fmt.Fprintf(&b, "  %10.4f", v)
		}
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// pairOutcome bundles every manager's result for one workload pair.
type pairOutcome struct {
	a, b    *workload.Spec
	results map[string]sim.PairResult
}

// runPairAll executes one pair under each factory within budget (the
// zero value selects the simulator's 110 W per socket) with a shared
// deterministic seed derived from the pair identity plus seedOffset.
func runPairAll(opts Options, a, b *workload.Spec, budget power.Budget, seedOffset int64,
	factories map[string]sim.ManagerFactory) (pairOutcome, error) {
	out := pairOutcome{a: a, b: b, results: make(map[string]sim.PairResult, len(factories))}
	seed := opts.Seed
	for _, c := range a.Name + "|" + b.Name {
		seed = seed*131 + int64(c)
	}
	seed += seedOffset
	names := make([]string, 0, len(factories))
	for name := range factories {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic execution order
	for _, name := range names {
		cfg := sim.PairConfig{
			WorkloadA: a,
			WorkloadB: b,
			Repeats:   opts.Repeats,
			Budget:    budget,
			Seed:      seed,
		}
		res, err := sim.RunPair(cfg, factories[name])
		if err != nil {
			return out, fmt.Errorf("exp: pair %s+%s under %s: %w", a.Name, b.Name, name, err)
		}
		if res.BudgetViolations > 0 {
			return out, fmt.Errorf("exp: pair %s+%s under %s violated the budget %d times", a.Name, b.Name, name, res.BudgetViolations)
		}
		out.results[name] = res
	}
	opts.progress("pair %s + %s done", a.Name, b.Name)
	return out, nil
}

// speedups returns the per-cluster speedups of manager mgr relative to the
// Constant result of the same pair: baselineHMean / hmean(runs under mgr).
func (p pairOutcome) speedups(mgr string) (sa, sb float64, err error) {
	base, ok := p.results["Constant"]
	if !ok {
		return 0, 0, fmt.Errorf("exp: pair %s+%s has no Constant baseline", p.a.Name, p.b.Name)
	}
	res, ok := p.results[mgr]
	if !ok {
		return 0, 0, fmt.Errorf("exp: pair %s+%s has no %s result", p.a.Name, p.b.Name, mgr)
	}
	sa, err = metrics.Speedup(power.Seconds(base.A.HMeanDuration), power.Seconds(res.A.HMeanDuration))
	if err != nil {
		return 0, 0, err
	}
	sb, err = metrics.Speedup(power.Seconds(base.B.HMeanDuration), power.Seconds(res.B.HMeanDuration))
	return sa, sb, err
}

// pairHMeanGain returns the harmonic mean of the two workloads' speedups
// under mgr, the paper's headline pair metric (Figures 5b and 6).
func (p pairOutcome) pairHMeanGain(mgr string) (float64, error) {
	sa, sb, err := p.speedups(mgr)
	if err != nil {
		return 0, err
	}
	return metrics.HMean([]float64{sa, sb}), nil
}
