// Package workload models the power-demand behaviour of the paper's
// benchmark applications: the 11 HiBench Spark workloads of Table 2 and
// the 8 NAS Parallel Benchmarks of Table 4.
//
// The paper's results are driven entirely by each workload's *power
// dynamics* — the length of its power phases, their peak power, the first
// derivative at transitions, and the frequency of changes (§3.1, Figure 2).
// A workload here is therefore a sequence of phases, each with an uncapped
// power demand and an amount of work (seconds of execution at full speed).
// Per-run jitter reproduces the run-to-run variance the paper reports for
// Spark (§6.1), and a linear power-performance model translates a power cap
// into a slowdown, which is how capping costs time on real hardware
// (frequency, and therefore throughput, scales roughly linearly with power
// above the idle floor in RAPL's operating range).
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"dps/internal/power"
)

// Phase is one power phase: the workload demands Demand watts for Work
// seconds of full-speed execution.
type Phase struct {
	Demand power.Watts
	Work   power.Seconds
}

// PerfModel maps allocated power to execution speed during a phase.
type PerfModel struct {
	// IdlePower is the power floor below which no useful work happens
	// (static/leakage power).
	IdlePower power.Watts
	// MinSpeed bounds the slowdown: even a unit capped at the floor makes
	// some progress (hardware cannot be clocked to zero).
	MinSpeed float64
	// Exponent shapes the power-to-speed curve: 1 is linear (the default);
	// values below 1 model workloads with sublinear power sensitivity
	// (memory-bound regions).
	Exponent float64
}

// DefaultPerfModel matches the reproduction's simulated sockets: a 20 W
// idle floor, 5 % minimum speed, and a square-root power-to-speed curve.
// The exponent follows the DVFS relation P ≈ C·f·V² with V tracking f:
// power grows roughly quadratically in frequency over RAPL's operating
// range, so speed grows like the square root of power headroom. This
// calibration puts the maximum oracle gain for GMM near the paper's
// observed 17.6 % (a linear model would predict an unphysical ~35 %).
func DefaultPerfModel() PerfModel {
	return PerfModel{IdlePower: 20, MinSpeed: 0.05, Exponent: 0.5}
}

// Validate reports whether the model is usable.
func (m PerfModel) Validate() error {
	switch {
	case m.IdlePower < 0:
		return fmt.Errorf("workload: negative idle power %v", m.IdlePower)
	case m.MinSpeed <= 0 || m.MinSpeed > 1:
		return fmt.Errorf("workload: MinSpeed %v outside (0,1]", m.MinSpeed)
	case m.Exponent <= 0:
		return fmt.Errorf("workload: non-positive exponent %v", m.Exponent)
	}
	return nil
}

// Speed returns the execution speed in [MinSpeed, 1] of a phase demanding
// demand watts when alloc watts are available. Full demand (or a demand at
// or below the idle floor) runs at speed 1.
func (m PerfModel) Speed(alloc, demand power.Watts) float64 {
	if demand <= m.IdlePower || alloc >= demand {
		return 1
	}
	num := float64(alloc - m.IdlePower)
	den := float64(demand - m.IdlePower)
	if num <= 0 {
		return m.MinSpeed
	}
	s := num / den
	if m.Exponent != 1 {
		s = math.Pow(s, m.Exponent)
	}
	if s < m.MinSpeed {
		s = m.MinSpeed
	}
	if s > 1 {
		s = 1
	}
	return s
}

// Run is one execution instance of a workload: a concrete phase list (with
// per-run jitter already applied) plus a progress cursor.
type Run struct {
	phases  []Phase
	idx     int
	done    power.Seconds // work completed in the current phase
	elapsed power.Seconds
}

// NewRun instantiates a run of spec with per-run jitter drawn from rng.
func NewRun(spec *Spec, rng *rand.Rand) *Run {
	return &Run{phases: spec.Generate(rng)}
}

// Phases returns the run's concrete phase list (owned by the run).
func (r *Run) Phases() []Phase { return r.phases }

// Done reports whether all phases have completed.
func (r *Run) Done() bool { return r.idx >= len(r.phases) }

// Elapsed returns the wall-clock seconds this run has been advancing.
func (r *Run) Elapsed() power.Seconds { return r.elapsed }

// Demand returns the current phase's uncapped power demand, or 0 when the
// run is done.
func (r *Run) Demand() power.Watts {
	if r.Done() {
		return 0
	}
	return r.phases[r.idx].Demand
}

// Advance progresses the run at the given speed for at most maxDt seconds,
// stopping early at a phase boundary (the caller recomputes speed for the
// new phase's demand and calls again). It returns the wall-clock time
// consumed. Advancing a finished run consumes no time.
func (r *Run) Advance(speed float64, maxDt power.Seconds) power.Seconds {
	if r.Done() || maxDt <= 0 {
		return 0
	}
	if speed <= 0 {
		// No progress, but time still passes.
		r.elapsed += maxDt
		return maxDt
	}
	ph := r.phases[r.idx]
	workLeft := ph.Work - r.done
	dtToFinish := workLeft / power.Seconds(speed)
	if dtToFinish <= maxDt {
		r.idx++
		r.done = 0
		r.elapsed += dtToFinish
		return dtToFinish
	}
	r.done += power.Seconds(speed) * maxDt
	r.elapsed += maxDt
	return maxDt
}

// UncappedDuration returns the run's total work: its duration when never
// capped.
func (r *Run) UncappedDuration() power.Seconds {
	var s power.Seconds
	for _, ph := range r.phases {
		s += ph.Work
	}
	return s
}

// UncappedMeanPower returns the work-weighted mean demand: the average
// power the run would draw with no cap. This is the denominator of the
// paper's satisfaction metric (Equation 1).
func (r *Run) UncappedMeanPower() power.Watts {
	var joules float64
	var secs float64
	for _, ph := range r.phases {
		joules += float64(ph.Demand) * float64(ph.Work)
		secs += float64(ph.Work)
	}
	if secs == 0 {
		return 0
	}
	return power.Watts(joules / secs)
}

// FractionAbove returns the fraction of uncapped execution time spent in
// phases demanding more than threshold watts (Table 2's "Above 110W"
// column).
func (r *Run) FractionAbove(threshold power.Watts) float64 {
	var above, total power.Seconds
	for _, ph := range r.phases {
		total += ph.Work
		if ph.Demand > threshold {
			above += ph.Work
		}
	}
	if total == 0 {
		return 0
	}
	return float64(above / total)
}

// DemandTrace samples the run's uncapped demand every dt seconds, the
// series plotted in the paper's Figure 2.
func (r *Run) DemandTrace(dt power.Seconds) []power.Watts {
	if dt <= 0 {
		return nil
	}
	var out []power.Watts
	var t, phaseEnd power.Seconds
	i := 0
	if len(r.phases) == 0 {
		return nil
	}
	phaseEnd = r.phases[0].Work
	total := r.UncappedDuration()
	for t < total && i < len(r.phases) {
		out = append(out, r.phases[i].Demand)
		t += dt
		for i < len(r.phases) && t >= phaseEnd {
			i++
			if i < len(r.phases) {
				phaseEnd += r.phases[i].Work
			}
		}
	}
	return out
}
