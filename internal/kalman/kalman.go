// Package kalman implements the 1-dimensional Kalman filter DPS uses to
// estimate true socket power from noisy RAPL readings (paper §4.3.2,
// standard Welch–Bishop formulation).
//
// The state is a single scalar: the unit's true power. The process model is
// a random walk (power is assumed locally constant between control steps,
// with process noise Q absorbing real phase changes), and the measurement
// model is identity plus Gaussian sensor noise R. Per step:
//
//	predict: x̂⁻ = x̂,      P⁻ = P + Q
//	update:  K  = P⁻/(P⁻+R), x̂ = x̂⁻ + K(z − x̂⁻), P = (1−K)P⁻
//
// Q and R trade responsiveness against smoothing: the paper picks them so
// the filter suppresses RAPL jitter but still tracks multi-second power
// phases; our defaults do the same for the simulated RAPL noise.
package kalman

import (
	"fmt"

	"dps/internal/power"
)

// Config holds the filter's noise model.
type Config struct {
	// ProcessNoise (Q) is the variance, in W², added to the estimate
	// uncertainty each step. Larger values make the filter trust new
	// measurements more (faster tracking, less smoothing).
	ProcessNoise float64
	// MeasurementNoise (R) is the sensor variance in W². Larger values make
	// the filter trust its prediction more (more smoothing).
	MeasurementNoise float64
	// InitialVariance (P₀) is the uncertainty assigned to the first
	// estimate. A large value makes the filter adopt the first measurement
	// almost verbatim.
	InitialVariance float64
}

// DefaultConfig matches the reproduction's simulated RAPL noise (σ ≈ 2 W)
// while tracking second-scale power phases: the steady-state gain is
// ≈0.75, so a phase transition reaches the estimate within ~2 steps — the
// priority module's derivative detector depends on that responsiveness.
func DefaultConfig() Config {
	return Config{
		ProcessNoise:     25.0, // power may swing several watts per second
		MeasurementNoise: 4.0,  // RAPL jitter σ≈2W
		InitialVariance:  1e4,
	}
}

// Filter is a 1-D Kalman filter over one unit's power. The zero value is
// not usable; construct with New.
type Filter struct {
	cfg      Config
	estimate power.Watts
	variance float64
	primed   bool
}

// New returns a filter with the given configuration.
func New(cfg Config) (*Filter, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Filter{cfg: cfg, variance: cfg.InitialVariance}, nil
}

// validate reports whether the noise model is usable.
func (cfg Config) validate() error {
	if cfg.ProcessNoise < 0 || cfg.MeasurementNoise < 0 || cfg.InitialVariance < 0 {
		return fmt.Errorf("kalman: negative variance in config %+v", cfg)
	}
	return nil
}

// Step folds one measurement into the estimate and returns the new
// estimated power.
func (f *Filter) Step(z power.Watts) power.Watts {
	if !f.primed {
		// First measurement: adopt it, keeping the configured uncertainty.
		f.estimate = z
		f.primed = true
		return f.estimate
	}
	// Predict.
	pPrior := f.variance + f.cfg.ProcessNoise
	// Update.
	denom := pPrior + f.cfg.MeasurementNoise
	var gain float64
	if denom > 0 {
		gain = pPrior / denom
	} else {
		gain = 1 // both noises zero: trust the measurement exactly
	}
	f.estimate += power.Watts(gain * float64(z-f.estimate))
	f.variance = (1 - gain) * pPrior
	return f.estimate
}

// StepSettled is Step with a bitwise fixed-point report: settled is true
// when folding z left both the estimate and the variance bitwise
// unchanged. Because the variance recursion v' = R(v+Q)/(v+Q+R) depends
// only on v, and the estimate update adds fl(gain·(z−est)) to est,
// settled==true implies every future StepSettled with the same z returns
// the same bits again — the property the sparse decision path uses to
// elide per-round filter work for unchanged readings. The arithmetic is
// operation-for-operation identical to Step.
func (f *Filter) StepSettled(z power.Watts) (est power.Watts, settled bool) {
	if !f.primed {
		f.estimate = z
		f.primed = true
		return f.estimate, false
	}
	pPrior := f.variance + f.cfg.ProcessNoise
	denom := pPrior + f.cfg.MeasurementNoise
	var gain float64
	if denom > 0 {
		gain = pPrior / denom
	} else {
		gain = 1
	}
	nextEst := f.estimate + power.Watts(gain*float64(z-f.estimate))
	nextVar := (1 - gain) * pPrior
	settled = nextEst == f.estimate && nextVar == f.variance
	f.estimate = nextEst
	f.variance = nextVar
	return f.estimate, settled
}

// Estimate returns the current estimate without folding in a measurement.
func (f *Filter) Estimate() power.Watts { return f.estimate }

// Variance returns the current estimate variance (P).
func (f *Filter) Variance() float64 { return f.variance }

// Primed reports whether at least one measurement has been observed.
func (f *Filter) Primed() bool { return f.primed }

// Reset returns the filter to its initial state.
func (f *Filter) Reset() {
	f.estimate = 0
	f.variance = f.cfg.InitialVariance
	f.primed = false
}

// State is one filter's complete serializable state: the scalar estimate,
// its variance, and whether the first measurement has been adopted. The
// noise model (Config) is deliberately excluded — it is construction
// input, and a snapshot restored into a differently-tuned filter would
// not be the same controller.
type State struct {
	Estimate power.Watts
	Variance float64
	Primed   bool
}

// ExportState returns the filter's serializable state.
func (f *Filter) ExportState() State {
	return State{Estimate: f.estimate, Variance: f.variance, Primed: f.primed}
}

// ImportState overwrites the filter's state bitwise. Future Step calls
// behave exactly as if this filter had processed the exporting filter's
// measurement history.
func (f *Filter) ImportState(s State) {
	f.estimate = s.Estimate
	f.variance = s.Variance
	f.primed = s.Primed
}

// Bank is one filter per unit, the controller-side companion of the power
// history set. The filters live in one contiguous value slice — not a
// slice of pointers — so the controller's per-unit estimation loop walks
// memory sequentially instead of chasing a pointer per unit, which at
// cluster scale (tens of thousands of units per round) is the difference
// between streaming the bank through cache and missing on every filter.
// Each filter owns state for exactly one unit; the controller's word-mask
// walker steps them one unit at a time from a single goroutine.
type Bank struct {
	filters []Filter
}

// NewBank creates n filters sharing one configuration.
func NewBank(n int, cfg Config) (*Bank, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	b := &Bank{filters: make([]Filter, n)}
	for i := range b.filters {
		b.filters[i] = Filter{cfg: cfg, variance: cfg.InitialVariance}
	}
	return b, nil
}

// Step folds a measurement for unit u and returns its new estimate. Safe
// to call concurrently for distinct units (see the Bank doc comment).
func (b *Bank) Step(u power.UnitID, z power.Watts) power.Watts {
	return b.filters[u].Step(z)
}

// StepSettled is Step plus the filter's bitwise fixed-point report; see
// Filter.StepSettled. Same concurrency contract as Step.
func (b *Bank) StepSettled(u power.UnitID, z power.Watts) (power.Watts, bool) {
	return b.filters[u].StepSettled(z)
}

// Unit returns the filter for unit u (a pointer into the bank's backing
// array, valid for the bank's lifetime).
func (b *Bank) Unit(u power.UnitID) *Filter { return &b.filters[u] }

// Len returns the number of units.
func (b *Bank) Len() int { return len(b.filters) }
