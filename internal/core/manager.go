// Package core contains the paper's primary contribution: the Dynamic
// Power Scheduler (DPS), a model-free *stateful* cluster power manager, and
// the Manager interface every power-management policy in this repository
// implements.
//
// A Manager is the control system of the paper's Figure 3: each decision
// step it receives the current per-unit power readings and returns the
// per-unit power caps for the next interval, never exceeding the
// cluster-wide budget.
package core

import (
	"dps/internal/power"
)

// UnitHealth is the liveness classification of one unit's telemetry, as
// judged by whoever feeds the manager (the daemon's per-unit last-report
// clock in deployment). The zero value is Fresh so a nil or zeroed health
// slice means "everything reporting normally".
type UnitHealth uint8

const (
	// HealthFresh means the unit reported within the staleness threshold;
	// it participates fully in the decision.
	HealthFresh UnitHealth = iota
	// HealthStale means the unit's last accepted report is older than the
	// staleness threshold (a hung agent, a partitioned link, or a unit
	// quarantined for garbage readings). Its reading carries no new
	// information, so a health-aware manager freezes it at its current cap
	// instead of re-budgeting on fiction.
	HealthStale
	// HealthDead means the unit passed the death threshold: the agent is
	// assumed gone. Its node keeps enforcing the last cap it was pushed,
	// so that power must stay reserved — reclaiming it would let the
	// delivered cap sum exceed the budget.
	HealthDead
)

// String returns the lowercase state name used in telemetry labels and
// flight-recorder records.
func (h UnitHealth) String() string {
	switch h {
	case HealthFresh:
		return "fresh"
	case HealthStale:
		return "stale"
	case HealthDead:
		return "dead"
	}
	return "unknown"
}

// Snapshot is the input to one decision step.
type Snapshot struct {
	// Power holds the measured average power of each unit over the last
	// interval (possibly noisy — managers must tolerate sensor jitter).
	Power power.Vector
	// Interval is the measurement interval, the paper's dT (default 1 s).
	Interval power.Seconds
	// Demand optionally carries each unit's true uncapped power demand.
	// Only the Oracle baseline may read it; it is nil in deployment and
	// for all realizable managers.
	Demand power.Vector
	// Health optionally classifies each unit's telemetry liveness. Nil
	// means all units are fresh. Health-aware managers (core.DPS) freeze
	// non-fresh units at their current caps and redistribute only among
	// fresh units; managers that ignore it still stay budget-safe because
	// delivery re-pins and fits their caps (see engine.Engine's deliver).
	Health []UnitHealth
	// Dirty optionally marks which units' Power values changed since the
	// previous snapshot (see DirtyMask for the exact contract). Nil means
	// unknown: sparse-round managers must then derive the changed set
	// themselves by comparing against the previous snapshot. Managers
	// that ignore it lose nothing — it is a pure work-avoidance hint and
	// never affects the decided caps.
	Dirty *DirtyMask
}

// Manager decides per-unit power caps from per-unit power readings.
type Manager interface {
	// Name identifies the policy in experiment output ("DPS", "SLURM",
	// "Constant", "Oracle").
	Name() string
	// Decide consumes one snapshot and returns the caps to apply for the
	// next interval. The returned vector is owned by the manager and valid
	// until the next Decide call; callers that retain it must clone it.
	// Implementations must keep the sum of caps within the budget and each
	// cap within hardware limits.
	Decide(snap Snapshot) power.Vector
	// Caps returns the manager's current cap vector (same ownership rules
	// as Decide).
	Caps() power.Vector
	// Budget returns the budget the manager was configured with.
	Budget() power.Budget
}
