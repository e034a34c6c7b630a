// Command dps-sim regenerates the paper's evaluation artifacts on the
// simulated platform: every figure and table of §6, the motivational
// example, ablations, and arbitrary custom workload pairs.
//
// Usage:
//
//	dps-sim -exp figure4                 # one experiment
//	dps-sim -exp all -repeats 10         # the full evaluation, paper scale
//	dps-sim -pair GMM,LDA -log steps.csv # one custom pair, with a step log
//
// Experiments: figure1 figure2 figure4 figure5 figure6 figure7 table2
// table4 summary ablations overhead sweep hierarchy throughput baselines
// dram all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dps/internal/exp"
	"dps/internal/power"
	"dps/internal/sim"
	"dps/internal/telemetry"
	"dps/internal/tracelog"
	"dps/internal/workload"
)

func main() {
	var (
		expName = flag.String("exp", "", "experiment to run: figure1|figure2|figure4|figure5|figure6|figure7|table2|table4|summary|ablations|overhead|sweep|hierarchy|throughput|baselines|dram|all")
		pair    = flag.String("pair", "", "run one custom pair instead, e.g. GMM,LDA")
		manager = flag.String("manager", "DPS", "manager for -pair: Constant|SLURM|DPS|Oracle")
		repeats = flag.Int("repeats", 4, "completed runs per workload per pair (paper: ≥10)")
		seed    = flag.Int64("seed", 42, "experiment seed")
		logPath = flag.String("log", "", "write a per-step power/cap/priority CSV for -pair runs")
		verbose = flag.Bool("v", false, "print per-pair progress")
		listWLs = flag.Bool("list", false, "list workloads and exit")
	)
	flag.Parse()

	if *listWLs {
		for _, s := range workload.All() {
			fmt.Printf("%-12s %-8s %-10s table: %8.2fs  above110: %5.1f%%\n",
				s.Name, s.Suite, s.Class, s.TableDuration, s.TableAbove110*100)
		}
		return
	}

	opts := exp.Options{Repeats: *repeats, Seed: *seed}
	if *verbose {
		opts.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	switch {
	case *pair != "":
		if err := runCustomPair(*pair, *manager, opts, *logPath); err != nil {
			fatal(err)
		}
	case *expName != "":
		if err := runExperiments(*expName, opts); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dps-sim:", err)
	os.Exit(1)
}

func runExperiments(name string, opts exp.Options) error {
	run := func(id string) error {
		switch id {
		case "figure1":
			m, err := exp.Figure1()
			if err != nil {
				return err
			}
			fmt.Println(m.Format())
		case "figure2":
			traces, err := exp.Figure2(opts.Seed)
			if err != nil {
				return err
			}
			for _, tr := range traces {
				fmt.Println(tr.Format(100))
			}
		case "figure4":
			r, err := exp.Figure4(opts)
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
		case "figure5":
			a, b, err := exp.Figure5(opts)
			if err != nil {
				return err
			}
			fmt.Println(a.Format())
			fmt.Println(b.Format())
		case "figure6":
			a, b, err := exp.Figure6(opts)
			if err != nil {
				return err
			}
			fmt.Println(a.Format())
			fmt.Println(b.Format())
		case "figure7":
			r, err := exp.Figure7(opts)
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
		case "table2":
			r, err := exp.Table2(opts)
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
		case "table4":
			r, err := exp.Table4(opts)
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
		case "summary":
			r, err := exp.Summary(opts)
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
		case "ablations":
			r, err := exp.Ablations(opts)
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
		case "overhead":
			r, err := exp.Overhead(nil, 0, opts.Seed)
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
		case "sweep":
			r, err := exp.Sweep(opts, nil)
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
		case "hierarchy":
			r, err := exp.Hierarchy(opts)
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
		case "throughput":
			r, err := exp.Throughput(opts)
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
		case "baselines":
			r, err := exp.Baselines(opts)
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
		case "dram":
			r, err := exp.DRAMStudy(opts)
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
		return nil
	}

	if name == "all" {
		for _, id := range []string{
			"figure1", "figure2", "table2", "table4",
			"figure4", "figure5", "figure6", "figure7",
			"summary", "ablations", "overhead", "sweep", "hierarchy", "throughput", "baselines", "dram",
		} {
			if err := run(id); err != nil {
				return err
			}
		}
		return nil
	}
	return run(name)
}

func runCustomPair(pairSpec, managerName string, opts exp.Options, logPath string) error {
	parts := strings.Split(pairSpec, ",")
	if len(parts) != 2 {
		return fmt.Errorf("-pair wants two comma-separated workload names, got %q", pairSpec)
	}
	a, err := workload.ByName(strings.TrimSpace(parts[0]))
	if err != nil {
		return err
	}
	b, err := workload.ByName(strings.TrimSpace(parts[1]))
	if err != nil {
		return err
	}
	factories := sim.StandardFactories(true)
	factory, ok := factories[managerName]
	if !ok {
		return fmt.Errorf("unknown manager %q (want Constant, SLURM, DPS or Oracle)", managerName)
	}

	cfg := sim.PairConfig{WorkloadA: a, WorkloadB: b, Repeats: opts.Repeats, Seed: opts.Seed}

	var logFile *os.File
	var lw *tracelog.Writer
	if logPath != "" {
		logFile, err = os.Create(logPath)
		if err != nil {
			return err
		}
		defer logFile.Close()
		lw = tracelog.NewWriter(logFile)
		cfg.StepHook = func(t power.Seconds, rec *telemetry.Round) {
			if err := lw.WriteStep(t, rec.Reading, rec.Cap, rec.Prio); err != nil {
				fmt.Fprintln(os.Stderr, "dps-sim: trace log:", err)
			}
		}
	}

	res, err := sim.RunPair(cfg, factory)
	if err != nil {
		return err
	}
	if lw != nil {
		if err := lw.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d log rows to %s\n", lw.Rows(), logPath)
	}

	fmt.Printf("pair %s + %s under %s (%d steps, %.0f virtual seconds)\n",
		a.Name, b.Name, res.Manager, res.Steps, res.SimTime)
	for _, cr := range []sim.ClusterResult{res.A, res.B} {
		fmt.Printf("  %-12s runs=%d mean=%.1fs hmean=%.1fs satisfaction=%.3f\n",
			cr.Workload, len(cr.Runs), cr.MeanDuration, cr.HMeanDuration, cr.MeanSatisfaction)
	}
	fmt.Printf("  fairness=%.3f budget_violations=%d\n", res.Fairness, res.BudgetViolations)
	if res.Stages != nil {
		fmt.Println(res.Stages.Format())
	}
	return nil
}
