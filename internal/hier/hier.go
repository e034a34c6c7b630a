// Package hier implements a two-level hierarchical DPS, the scaling
// structure the paper's related work attributes to the Argo project's
// "conclave-node two-level" power management (§2.3) — here built from
// power dynamics at both levels instead of stateless rules.
//
// Units are partitioned into groups (racks, sub-clusters). Each group runs
// a local DPS over its own units under a *group budget*. A top-level DPS
// treats every group as one aggregate unit — its "power reading" is the
// group's total measured power, its "cap" is the group budget — and
// reassigns group budgets every epoch from the groups' power dynamics. The
// same algorithmic machinery therefore shifts watts between sockets inside
// a group every step, and between whole groups every epoch.
//
// Why it matters: a single controller over N units does O(N) work per step
// and sees O(N) messages; the hierarchy bounds the top level at the group
// count and lets group controllers run near their nodes. The budget
// invariant composes: the top level never hands out more than the cluster
// budget, and each local DPS never exceeds its group budget.
package hier

import (
	"fmt"

	"dps/internal/core"
	"dps/internal/power"
)

// Config assembles a hierarchical manager.
type Config struct {
	// Groups is the number of first-level domains.
	Groups int
	// UnitsPerGroup is the unit count per group (uniform partition; unit u
	// belongs to group u / UnitsPerGroup).
	UnitsPerGroup int
	// Budget is the cluster-wide envelope; UnitMax/UnitMin are per *unit*.
	Budget power.Budget
	// Epoch is the number of decision steps between top-level budget
	// reassignments (local decisions happen every step).
	Epoch int
	// Local configures the per-group controllers; zero value takes DPS
	// defaults. Units and Budget fields are overwritten per group.
	Local *core.Config
	// Top configures the group-level controller; zero value takes DPS
	// defaults. Units and Budget fields are overwritten.
	Top *core.Config
	// Seed derives all controller seeds.
	Seed int64
}

// DefaultConfig returns a hierarchy of `groups` × `unitsPerGroup` units
// with a 5-step top-level epoch.
func DefaultConfig(groups, unitsPerGroup int, budget power.Budget) Config {
	return Config{
		Groups:        groups,
		UnitsPerGroup: unitsPerGroup,
		Budget:        budget,
		Epoch:         5,
		Seed:          1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Groups <= 0:
		return fmt.Errorf("hier: non-positive group count %d", c.Groups)
	case c.UnitsPerGroup <= 0:
		return fmt.Errorf("hier: non-positive units per group %d", c.UnitsPerGroup)
	case c.Epoch <= 0:
		return fmt.Errorf("hier: non-positive epoch %d", c.Epoch)
	}
	return c.Budget.Validate(c.Groups * c.UnitsPerGroup)
}

// Manager is the two-level controller. It implements core.Manager over the
// full unit space.
type Manager struct {
	cfg    Config
	units  int
	top    *core.DPS
	locals []*core.DPS

	groupBudgets power.Vector // current per-group totals (top-level caps)
	groupPower   power.Vector // scratch: per-group summed readings
	caps         power.Vector // assembled per-unit caps
	steps        uint64
}

var _ core.Manager = (*Manager)(nil)

// New builds the hierarchy. Group budgets start even, every local DPS
// starts at its constant cap — identical to flat DPS's initial condition.
func New(cfg Config) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	units := cfg.Groups * cfg.UnitsPerGroup

	// Top level: one "unit" per group. The group's hardware range is the
	// sum of its members' ranges.
	topCfg := core.DefaultConfig(cfg.Groups, power.Budget{
		Total:   cfg.Budget.Total,
		UnitMax: cfg.Budget.UnitMax * power.Watts(cfg.UnitsPerGroup),
		UnitMin: cfg.Budget.UnitMin * power.Watts(cfg.UnitsPerGroup),
	})
	if cfg.Top != nil {
		topCfg = *cfg.Top
		topCfg.Units = cfg.Groups
		topCfg.Budget = power.Budget{
			Total:   cfg.Budget.Total,
			UnitMax: cfg.Budget.UnitMax * power.Watts(cfg.UnitsPerGroup),
			UnitMin: cfg.Budget.UnitMin * power.Watts(cfg.UnitsPerGroup),
		}
	}
	topCfg.Seed = cfg.Seed * 7919
	top, err := core.NewDPS(topCfg)
	if err != nil {
		return nil, fmt.Errorf("hier: building top level: %w", err)
	}

	m := &Manager{
		cfg:          cfg,
		units:        units,
		top:          top,
		locals:       make([]*core.DPS, cfg.Groups),
		groupBudgets: top.Caps().Clone(),
		groupPower:   make(power.Vector, cfg.Groups),
		caps:         make(power.Vector, units),
	}
	for g := 0; g < cfg.Groups; g++ {
		localBudget := power.Budget{
			Total:   m.groupBudgets[g],
			UnitMax: cfg.Budget.UnitMax,
			UnitMin: cfg.Budget.UnitMin,
		}
		localCfg := core.DefaultConfig(cfg.UnitsPerGroup, localBudget)
		if cfg.Local != nil {
			localCfg = *cfg.Local
			localCfg.Units = cfg.UnitsPerGroup
			localCfg.Budget = localBudget
		}
		localCfg.Seed = cfg.Seed*104729 + int64(g)
		local, err := core.NewDPS(localCfg)
		if err != nil {
			return nil, fmt.Errorf("hier: building group %d: %w", g, err)
		}
		m.locals[g] = local
		copy(m.caps[g*cfg.UnitsPerGroup:(g+1)*cfg.UnitsPerGroup], local.Caps())
	}
	return m, nil
}

// Name implements core.Manager.
func (m *Manager) Name() string { return "DPS(hierarchical)" }

// Budget implements core.Manager.
func (m *Manager) Budget() power.Budget { return m.cfg.Budget }

// Caps implements core.Manager.
func (m *Manager) Caps() power.Vector { return m.caps }

// GroupBudgets returns the current per-group power totals (owned by the
// manager; for logging and tests).
func (m *Manager) GroupBudgets() power.Vector { return m.groupBudgets }

// Group returns group g's local controller (for inspection in tests).
func (m *Manager) Group(g int) *core.DPS { return m.locals[g] }

// Decide implements core.Manager: local decisions every step, a top-level
// budget reassignment every Epoch steps.
func (m *Manager) Decide(snap core.Snapshot) power.Vector {
	if len(snap.Power) != m.units {
		panic(fmt.Sprintf("hier: %d readings for %d units", len(snap.Power), m.units))
	}
	upg := m.cfg.UnitsPerGroup

	// Aggregate group power for the top level.
	for g := 0; g < m.cfg.Groups; g++ {
		var sum power.Watts
		for _, p := range snap.Power[g*upg : (g+1)*upg] {
			sum += p
		}
		m.groupPower[g] = sum
	}

	// Top level: reassign group budgets once per epoch. The top-level DPS
	// still observes every step so its power histories stay current.
	topCaps := m.top.Decide(core.Snapshot{Power: m.groupPower, Interval: snap.Interval})
	if m.steps%uint64(m.cfg.Epoch) == 0 {
		copy(m.groupBudgets, topCaps)
		for g, local := range m.locals {
			if err := local.SetTotalBudget(m.groupBudgets[g]); err != nil {
				// A top-level cap below unitsPerGroup×UnitMin cannot occur:
				// the top budget's UnitMin enforces it. Keep the previous
				// budget if it ever does.
				continue
			}
		}
	}
	m.steps++

	// Local level: every group decides within its current budget.
	for g, local := range m.locals {
		caps := local.Decide(core.Snapshot{
			Power:    snap.Power[g*upg : (g+1)*upg],
			Interval: snap.Interval,
		})
		copy(m.caps[g*upg:(g+1)*upg], caps)
	}
	return m.caps
}
