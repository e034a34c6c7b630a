// Package dps is a from-scratch Go reproduction of "DPS: Adaptive Power
// Management for Overprovisioned Systems" (Ding & Hoffmann, SC '23): a
// model-free *stateful* power manager that divides a cluster-wide power
// budget among power-capping units (sockets), plus every substrate the
// paper's evaluation depends on — a simulated RAPL layer, the HiBench and
// NPB workload models, a discrete-time cluster simulator, the SLURM-style
// stateless baseline, a demand-proportional oracle, and the 3-byte-record
// controller/agent network protocol.
//
// The package is a facade: it re-exports the stable public surface of the
// internal packages so applications depend only on module path "dps".
//
// # Quick start
//
//	budget := dps.Budget{Total: 2200, UnitMax: 165, UnitMin: 10}
//	mgr, err := dps.New(20, budget, dps.WithSeed(7))
//	if err != nil { ... }
//	for {
//	    readings := readSocketPower()            // e.g. via dps.NewMeter
//	    caps, stats := mgr.DecideStats(dps.Snapshot{Power: readings, Interval: 1})
//	    applyCaps(caps)                          // e.g. via RAPL devices
//	    observe(stats)                           // per-stage timings, outcomes
//	}
//
// New applies functional options over the paper's defaults; NewDPS(Config)
// is the low-level constructor. A decision round is single-threaded and
// skips units whose state provably cannot have changed, with decisions
// bitwise identical to processing every unit (see
// Config.SparseRefreshEvery).
//
// See examples/ for runnable programs: a quickstart simulation, a paired
// Spark workload study, the paper's Figure 1 motivation scenario, and a
// real TCP controller daemon with per-node agents.
package dps

import (
	"dps/internal/baseline"
	"dps/internal/core"
	"dps/internal/kalman"
	"dps/internal/power"
	"dps/internal/priority"
	"dps/internal/readjust"
	"dps/internal/stateless"
)

// Power quantities and cluster-wide budget types.
type (
	// Watts is instantaneous power.
	Watts = power.Watts
	// Joules is accumulated energy.
	Joules = power.Joules
	// Seconds is a duration in seconds (the control interval dT).
	Seconds = power.Seconds
	// UnitID identifies one power-capping unit (a socket).
	UnitID = power.UnitID
	// Vector is a per-unit slice of watt values.
	Vector = power.Vector
	// Budget is the cluster-wide power envelope.
	Budget = power.Budget
	// Reading is one unit's power measurement.
	Reading = power.Reading
)

// Controller types: the Manager interface and the DPS implementation.
type (
	// Manager decides per-unit power caps from per-unit power readings.
	Manager = core.Manager
	// Snapshot is the input to one decision step.
	Snapshot = core.Snapshot
	// Config assembles a DPS controller.
	Config = core.Config
	// DPS is the Dynamic Power Scheduler controller.
	DPS = core.DPS
	// RoundStats is one decision round's stage timings and outcomes
	// (returned by DPS.DecideStats).
	RoundStats = core.RoundStats
	// StageTimings is the per-stage wall time inside RoundStats.
	StageTimings = core.StageTimings
)

// Module configuration types, for callers tuning individual stages.
type (
	// StatelessConfig tunes the Algorithm 1 MIMD stage (also the SLURM
	// baseline).
	StatelessConfig = stateless.Config
	// KalmanConfig tunes the per-unit measurement filters.
	KalmanConfig = kalman.Config
	// PriorityConfig tunes the Algorithm 2 power-dynamics stage.
	PriorityConfig = priority.Config
	// ReadjustConfig tunes the Algorithm 3/4 cap-readjusting stage.
	ReadjustConfig = readjust.Config
	// OracleConfig tunes the oracle baseline.
	OracleConfig = baseline.OracleConfig
)

// NewDPS builds a DPS controller from a fully assembled Config. Most
// callers want New, which layers functional options over the defaults.
func NewDPS(cfg Config) (*DPS, error) { return core.NewDPS(cfg) }

// DefaultConfig returns the paper's default DPS configuration for n units
// under the given budget.
func DefaultConfig(n int, budget Budget) Config { return core.DefaultConfig(n, budget) }

// NewConstant builds the constant-allocation baseline manager.
func NewConstant(n int, budget Budget) (Manager, error) {
	return baseline.NewConstant(n, budget)
}

// NewSLURM builds the stateless MIMD baseline manager modeled on SLURM's
// power plugin. seed fixes the random cap-raise ordering.
func NewSLURM(n int, budget Budget, cfg StatelessConfig, seed int64) (Manager, error) {
	return baseline.NewSLURM(n, budget, cfg, seed)
}

// NewOracle builds the demand-proportional oracle (requires true demands
// in Snapshot.Demand; unrealizable in deployment, used for evaluation).
func NewOracle(n int, budget Budget, cfg OracleConfig) (Manager, error) {
	return baseline.NewOracle(n, budget, cfg)
}

// DefaultStatelessConfig returns the Algorithm 1 defaults.
func DefaultStatelessConfig() StatelessConfig { return stateless.DefaultConfig() }

// DefaultOracleConfig returns the oracle defaults.
func DefaultOracleConfig() OracleConfig { return baseline.DefaultOracleConfig() }

// HMean returns the harmonic mean, the paper's aggregate for paired
// workload performance.
func HMean(xs []float64) float64 { return power.HMean(xs) }

// NewVector returns a per-unit vector of n entries, each set to v.
func NewVector(n int, v Watts) Vector { return power.NewVector(n, v) }
