// Package p2p implements a decentralized, peer-to-peer power manager in
// the spirit of Penelope (Srivastava et al., ICPP '22, cited in the
// paper's §6.5): there is no central budget holder — every unit owns a
// slice of the cluster budget, and pairs of units trade watts directly.
//
// Each decision interval, units gossip in random disjoint pairs. Within a
// pair, a unit pinned at its cap (it needs power now) takes a fraction of
// its partner's measured slack; transfers are exactly zero-sum, so the
// cluster budget is conserved by construction, without any entity ever
// seeing more than two units' state. The trade-off against centralized
// DPS is convergence speed: budget moves at gossip speed (one hop per
// interval), so skew across many units takes several rounds to drain —
// the price of removing the central controller and its O(N) fan-in.
//
// For evaluation the whole gossip round is simulated inside one Decide
// call; a real deployment would run the same pairwise exchange between
// node agents directly.
package p2p

import (
	"fmt"
	"math/rand"

	"dps/internal/core"
	"dps/internal/power"
)

// Config tunes the peer-to-peer manager.
type Config struct {
	// Units is the number of power-capping units.
	Units int
	// Budget is the cluster-wide envelope; each unit starts with an even
	// share.
	Budget power.Budget
	// AtCap is the pinned-detection threshold (fraction of the unit's
	// budget).
	AtCap float64
	// SlackThreshold: a unit drawing below this fraction of its budget is
	// a donor.
	SlackThreshold float64
	// ShiftFraction of the donor's measured slack moves per exchange.
	ShiftFraction float64
	// Margin is the minimum slack (watts) before a transfer, guarding
	// against measurement-noise ratchets.
	Margin power.Watts
	// Rounds is the number of gossip rounds simulated per decision
	// interval (a real deployment does 1; more rounds model faster
	// networks).
	Rounds int
	// Seed drives the random pairing.
	Seed int64
}

// DefaultConfig mirrors the stateless module's thresholds with one gossip
// round per interval.
func DefaultConfig(units int, budget power.Budget) Config {
	return Config{
		Units:          units,
		Budget:         budget,
		AtCap:          0.95,
		SlackThreshold: 0.80,
		ShiftFraction:  0.5,
		Margin:         6,
		Rounds:         1,
		Seed:           1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.AtCap <= 0 || c.AtCap > 1:
		return fmt.Errorf("p2p: AtCap %v outside (0,1]", c.AtCap)
	case c.SlackThreshold <= 0 || c.SlackThreshold >= c.AtCap:
		return fmt.Errorf("p2p: SlackThreshold %v outside (0, AtCap)", c.SlackThreshold)
	case c.ShiftFraction <= 0 || c.ShiftFraction > 1:
		return fmt.Errorf("p2p: ShiftFraction %v outside (0,1]", c.ShiftFraction)
	case c.Margin < 0:
		return fmt.Errorf("p2p: negative margin %v", c.Margin)
	case c.Rounds < 1:
		return fmt.Errorf("p2p: Rounds %d must be at least 1", c.Rounds)
	}
	return c.Budget.Validate(c.Units)
}

// Manager is the peer-to-peer power manager.
type Manager struct {
	cfg     Config
	rng     *rand.Rand
	budgets power.Vector
	order   []int
}

var _ core.Manager = (*Manager)(nil)

// New returns a manager with the budget split evenly.
func New(cfg Config) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		budgets: power.NewVector(cfg.Units, cfg.Budget.ConstantCap(cfg.Units)),
		order:   make([]int, cfg.Units),
	}
	for i := range m.order {
		m.order[i] = i
	}
	return m, nil
}

// Name implements core.Manager.
func (m *Manager) Name() string { return "P2P" }

// Budget implements core.Manager.
func (m *Manager) Budget() power.Budget { return m.cfg.Budget }

// Caps implements core.Manager: each unit's cap is its owned budget.
func (m *Manager) Caps() power.Vector { return m.budgets }

// Decide implements core.Manager: Rounds gossip rounds of disjoint random
// pairwise exchanges.
func (m *Manager) Decide(snap core.Snapshot) power.Vector {
	n := m.cfg.Units
	if len(snap.Power) != n {
		panic(fmt.Sprintf("p2p: %d readings for %d units", len(snap.Power), n))
	}
	for round := 0; round < m.cfg.Rounds; round++ {
		m.rng.Shuffle(n, func(i, j int) {
			m.order[i], m.order[j] = m.order[j], m.order[i]
		})
		for k := 0; k+1 < n; k += 2 {
			m.exchange(m.order[k], m.order[k+1], snap.Power)
		}
	}
	return m.budgets
}

// exchange runs one pairwise trade using only the two units' state.
func (m *Manager) exchange(i, j int, pw power.Vector) {
	needI := m.pinned(i, pw)
	needJ := m.pinned(j, pw)
	switch {
	case needI && !needJ:
		m.transfer(j, i, pw)
	case needJ && !needI:
		m.transfer(i, j, pw)
	case needI && needJ:
		// Both pinned: equalize the pair's budgets — DPS's readjust
		// equalization, decentralized. Without this, a unit that ramped
		// early keeps its hoard forever (the Figure 1 deadlock replayed
		// pairwise), because a pinned unit never has slack to donate.
		// Pairwise averaging over random gossip pairs converges to the
		// global mean, which is exactly the fair allocation.
		m.equalize(i, j)
		// Both idle: no trade.
	}
}

// equalize moves the pair toward its mean budget, bounded by ShiftFraction
// per round and both units' hardware limits. Zero-sum.
func (m *Manager) equalize(i, j int) {
	hi, lo := i, j
	if m.budgets[hi] < m.budgets[lo] {
		hi, lo = lo, hi
	}
	move := (m.budgets[hi] - m.budgets[lo]) / 2 * power.Watts(m.cfg.ShiftFraction)
	if floor := m.budgets[hi] - m.cfg.Budget.UnitMin; move > floor {
		move = floor
	}
	if ceil := m.cfg.Budget.UnitMax - m.budgets[lo]; move > ceil {
		move = ceil
	}
	if move <= 0 {
		return
	}
	m.budgets[hi] -= move
	m.budgets[lo] += move
}

func (m *Manager) pinned(u int, pw power.Vector) bool {
	return pw[u] >= m.budgets[u]*power.Watts(m.cfg.AtCap)
}

// transfer moves a fraction of from's slack to to, zero-sum, respecting
// both units' hardware limits.
func (m *Manager) transfer(from, to int, pw power.Vector) {
	// Only donate when clearly below the donor threshold.
	if pw[from] >= m.budgets[from]*power.Watts(m.cfg.SlackThreshold) {
		return
	}
	slack := m.budgets[from] - pw[from]
	if slack <= m.cfg.Margin {
		return
	}
	move := (slack - m.cfg.Margin) * power.Watts(m.cfg.ShiftFraction)
	// Hardware clamps bound the trade on both sides.
	if floor := m.budgets[from] - m.cfg.Budget.UnitMin; move > floor {
		move = floor
	}
	if ceil := m.cfg.Budget.UnitMax - m.budgets[to]; move > ceil {
		move = ceil
	}
	if move <= 0 {
		return
	}
	m.budgets[from] -= move
	m.budgets[to] += move
}
