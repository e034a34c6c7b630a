// Package baseline implements the three power managers the paper compares
// DPS against (§1, §5.2):
//
//   - Constant allocation: every unit gets budget/N, forever. Trivially
//     respects the budget; wastes headroom when demands are skewed. It is
//     the normalization baseline of every figure.
//   - SLURM: the stateless MIMD controller of Algorithm 1 used alone,
//     modeling SLURM's power management plugin.
//   - Oracle: an unrealizable manager that sees each unit's true uncapped
//     power demand and water-fills the budget proportionally to demand,
//     equalizing instantaneous satisfaction. The paper uses it only in the
//     low-utility experiments where an oracle is computable.
package baseline

import (
	"fmt"

	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/stateless"
)

// Constant is the constant-allocation manager.
type Constant struct {
	budget power.Budget
	caps   power.Vector
}

var _ core.Manager = (*Constant)(nil)

// NewConstant returns a constant-allocation manager for n units.
func NewConstant(n int, budget power.Budget) (*Constant, error) {
	if err := budget.Validate(n); err != nil {
		return nil, err
	}
	return &Constant{
		budget: budget,
		caps:   power.NewVector(n, budget.ConstantCap(n)),
	}, nil
}

// Name implements core.Manager.
func (c *Constant) Name() string { return "Constant" }

// Budget implements core.Manager.
func (c *Constant) Budget() power.Budget { return c.budget }

// Caps implements core.Manager.
func (c *Constant) Caps() power.Vector { return c.caps }

// Decide implements core.Manager: the caps never move.
func (c *Constant) Decide(snap core.Snapshot) power.Vector {
	if len(snap.Power) != len(c.caps) {
		panic(fmt.Sprintf("baseline: %d readings for %d units", len(snap.Power), len(c.caps)))
	}
	return c.caps
}

// SLURM is the stateless model-free manager: Algorithm 1 alone, decisions
// from instantaneous power only.
type SLURM struct {
	budget power.Budget
	module *stateless.Module
	caps   power.Vector
}

var _ core.Manager = (*SLURM)(nil)

// NewSLURM returns a stateless manager for n units. Seed fixes the random
// cap-raise ordering.
func NewSLURM(n int, budget power.Budget, cfg stateless.Config, seed int64) (*SLURM, error) {
	if err := budget.Validate(n); err != nil {
		return nil, err
	}
	m, err := stateless.New(cfg, seed)
	if err != nil {
		return nil, err
	}
	return &SLURM{
		budget: budget,
		module: m,
		caps:   power.NewVector(n, budget.ConstantCap(n)),
	}, nil
}

// Name implements core.Manager.
func (s *SLURM) Name() string { return "SLURM" }

// Budget implements core.Manager.
func (s *SLURM) Budget() power.Budget { return s.budget }

// Caps implements core.Manager.
func (s *SLURM) Caps() power.Vector { return s.caps }

// Decide implements core.Manager: one MIMD step on the raw readings.
func (s *SLURM) Decide(snap core.Snapshot) power.Vector {
	s.module.Apply(snap.Power, s.caps, s.budget)
	return s.caps
}

// OracleConfig tunes the oracle's allocation.
type OracleConfig struct {
	// Headroom is added on top of each unit's true demand when the budget
	// suffices, so a unit can immediately ramp into a new phase. Watts.
	Headroom power.Watts
}

// DefaultOracleConfig gives each unit 5 W of anticipatory headroom.
func DefaultOracleConfig() OracleConfig { return OracleConfig{Headroom: 5} }

// Oracle allocates the budget knowing every unit's true uncapped power
// demand for the coming interval. If the total demand (plus headroom) fits
// the budget, every unit gets its demand plus headroom, and remaining
// budget is spread evenly. Otherwise caps are proportional to demand —
// cap_i = budget · d_i / Σd — which equalizes instantaneous satisfaction
// (the paper's demand-proportional fairness, §3).
type Oracle struct {
	budget power.Budget
	cfg    OracleConfig
	caps   power.Vector
}

var _ core.Manager = (*Oracle)(nil)

// NewOracle returns an oracle manager for n units.
func NewOracle(n int, budget power.Budget, cfg OracleConfig) (*Oracle, error) {
	if err := budget.Validate(n); err != nil {
		return nil, err
	}
	if cfg.Headroom < 0 {
		return nil, fmt.Errorf("baseline: negative oracle headroom %v", cfg.Headroom)
	}
	return &Oracle{
		budget: budget,
		cfg:    cfg,
		caps:   power.NewVector(n, budget.ConstantCap(n)),
	}, nil
}

// Name implements core.Manager.
func (o *Oracle) Name() string { return "Oracle" }

// Budget implements core.Manager.
func (o *Oracle) Budget() power.Budget { return o.budget }

// Caps implements core.Manager.
func (o *Oracle) Caps() power.Vector { return o.caps }

// Decide implements core.Manager. It requires snap.Demand; using the oracle
// without true demands is a programming error.
func (o *Oracle) Decide(snap core.Snapshot) power.Vector {
	n := len(o.caps)
	if len(snap.Demand) != n {
		panic(fmt.Sprintf("baseline: oracle needs %d true demands, got %d", n, len(snap.Demand)))
	}
	b := o.budget

	var want power.Vector = make(power.Vector, n)
	var total power.Watts
	for u := 0; u < n; u++ {
		w := snap.Demand[u] + o.cfg.Headroom
		if w > b.UnitMax {
			w = b.UnitMax
		}
		if w < b.UnitMin {
			w = b.UnitMin
		}
		want[u] = w
		total += w
	}

	if total <= b.Total {
		// Demands fit: grant them, spread the slack evenly (more headroom
		// never hurts and keeps the full budget in play, like the paper's
		// perfect model-based row in Figure 1).
		slack := (b.Total - total) / power.Watts(n)
		for u := 0; u < n; u++ {
			c := want[u] + slack
			if c > b.UnitMax {
				c = b.UnitMax
			}
			o.caps[u] = c
		}
		return o.caps
	}

	// Contention: proportional to demand, respecting UnitMin as a floor.
	// Iterate because clamping at the floor frees/needs budget.
	remaining := b.Total
	var demandSum power.Watts
	for u := 0; u < n; u++ {
		demandSum += want[u]
	}
	if demandSum <= 0 {
		for u := 0; u < n; u++ {
			o.caps[u] = b.ConstantCap(n)
		}
		return o.caps
	}
	floorBudget := power.Watts(n) * b.UnitMin
	scalable := remaining - floorBudget
	var aboveFloor power.Watts
	for u := 0; u < n; u++ {
		aboveFloor += want[u] - b.UnitMin
	}
	for u := 0; u < n; u++ {
		c := b.UnitMin
		if aboveFloor > 0 && scalable > 0 {
			c += scalable * (want[u] - b.UnitMin) / aboveFloor
		}
		if c > b.UnitMax {
			c = b.UnitMax
		}
		o.caps[u] = c
	}
	return o.caps
}
