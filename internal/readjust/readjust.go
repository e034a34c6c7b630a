// Package readjust implements the paper's cap readjusting module
// (Algorithms 3 and 4): the stage that turns the stateless module's
// temporary allocation plus the priority module's flags into DPS's final
// cap decision.
//
// It has two parts. Restore (Algorithm 3) notices when no unit in the whole
// system is drawing meaningful power and resets every cap to the constant
// cap, guaranteeing headroom for whichever unit's work arrives next.
// Readjust (Algorithm 4) then either grants leftover budget to
// high-priority units (more to those with lower caps, who are further from
// their anticipated peak) or — when the budget is exhausted — equalizes the
// caps of all high-priority units so that no unit that ramped up early can
// permanently starve one that ramped up late. The equalization step is what
// lets DPS escape the stateless local optimum shown in the paper's Figure 1.
package readjust

import (
	"fmt"

	"dps/internal/power"
)

// Config holds the module's parameters.
type Config struct {
	// RestoreThreshold is the fraction of the constant cap below which a
	// unit counts as quiet (Algorithm 3's inc_threshold). All units must be
	// quiet for restoration to trigger.
	RestoreThreshold float64
	// EnforceFloor adds an explicit guarantee pass after equalization: if
	// the equalized high-priority cap falls below the constant cap, budget
	// is reclaimed from low-priority units holding more than the constant
	// cap until every high-priority unit reaches it. The paper argues this
	// situation cannot arise (§4.3.4); enforcing it makes the
	// constant-allocation lower bound hold by construction even under
	// adversarial stateless-module states. Disable for ablation.
	EnforceFloor bool
}

// DefaultConfig treats a unit as quiet below 50 % of the constant cap and
// enforces the lower-bound floor.
func DefaultConfig() Config {
	return Config{RestoreThreshold: 0.5, EnforceFloor: true}
}

// Validate reports whether the configuration is self-consistent.
func (c Config) Validate() error {
	if c.RestoreThreshold <= 0 || c.RestoreThreshold > 1 {
		return fmt.Errorf("readjust: RestoreThreshold %v outside (0,1]", c.RestoreThreshold)
	}
	return nil
}

// Module applies restore and readjust to a cap vector.
type Module struct {
	cfg Config
	// DisableRestore skips Algorithm 3 entirely (an ablation knob).
	DisableRestore bool
}

// New returns a module with the given configuration.
func New(cfg Config) (*Module, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Module{cfg: cfg}, nil
}

// Restore implements Algorithm 3. If every unit's current power is below
// RestoreThreshold × constantCap, all caps are reset to constantCap. It
// returns whether restoration happened; when it does, Readjust must be
// skipped.
func (m *Module) Restore(powerNow, caps power.Vector, constantCap power.Watts) bool {
	if m.DisableRestore {
		return false
	}
	limit := constantCap * power.Watts(m.cfg.RestoreThreshold)
	for _, p := range powerNow {
		if p > limit {
			return false
		}
	}
	for u := range caps {
		caps[u] = constantCap
	}
	return true
}

// Outcome reports which branch of Algorithm 4 a Readjust call took, so
// callers can count how often the budget was exhausted versus granted.
type Outcome int

const (
	// OutcomeNone means no high-priority units existed; caps untouched.
	OutcomeNone Outcome = iota
	// OutcomeGrant means leftover budget was distributed (Algorithm 4's
	// budget-available branch).
	OutcomeGrant
	// OutcomeEqualize means the budget was exhausted and high-priority
	// caps were equalized (the branch that escapes Figure 1's local
	// optimum).
	OutcomeEqualize
)

// String names the outcome for logs and metrics labels.
func (o Outcome) String() string {
	switch o {
	case OutcomeGrant:
		return "grant"
	case OutcomeEqualize:
		return "equalize"
	default:
		return "none"
	}
}

// ReadjustCounted implements Algorithm 4. prio[u] marks high-priority
// units; countHigh must equal the number of true entries in prio (the
// controller maintains it incrementally from classification transitions,
// so a quiet round pays no O(N) tally here).
//
//   - If unassigned budget remains, it is divided among high-priority units
//     with weights inversely proportional to their current caps (a unit far
//     below its anticipated peak gets more), each cap clamped to
//     budget.UnitMax. Deviation from the paper's literal pseudocode
//     (DESIGN.md): the share is *added* to the existing cap rather than
//     replacing it.
//   - Otherwise the caps of all high-priority units are equalized at their
//     mean, forcing equal penalties on all units that need power, and — with
//     EnforceFloor — never below the constant cap.
//
// Low-priority units are never touched. The sum of caps never increases by
// more than the unassigned budget, so the cluster budget stays respected.
// The returned Outcome identifies the branch taken.
func (m *Module) ReadjustCounted(caps power.Vector, prio []bool, budget power.Budget, constantCap power.Watts, countHigh int) Outcome {
	n := len(caps)
	if len(prio) != n {
		panic(fmt.Sprintf("readjust: %d priorities for %d caps", len(prio), n))
	}
	if countHigh == 0 {
		return OutcomeNone
	}

	avail := budget.Total - caps.Sum()
	if avail > 0 {
		m.grantLeftover(caps, prio, budget, avail)
		return OutcomeGrant
	}
	m.equalize(caps, prio, budget, constantCap, countHigh)
	return OutcomeEqualize
}

// grantLeftover distributes avail watts to high-priority units, weighting
// each unit by the inverse of its current cap.
func (m *Module) grantLeftover(caps power.Vector, prio []bool, budget power.Budget, avail power.Watts) {
	// Weights: w_u = 1/cap_u (with a floor to avoid division blow-up). The
	// paper's budget_high/cap_u numerator cancels during normalization.
	const minDivisor = 1.0 // watts
	var totalWeight float64
	for u := range caps {
		if prio[u] {
			d := float64(caps[u])
			if d < minDivisor {
				d = minDivisor
			}
			totalWeight += 1 / d
		}
	}
	if totalWeight <= 0 {
		return
	}
	for u := range caps {
		if !prio[u] {
			continue
		}
		d := float64(caps[u])
		if d < minDivisor {
			d = minDivisor
		}
		share := avail * power.Watts((1/d)/totalWeight)
		next := caps[u] + share
		if next > budget.UnitMax {
			next = budget.UnitMax
		}
		caps[u] = next
	}
}

// equalize sets every high-priority unit's cap to the group mean (clamped
// to hardware limits), optionally raising the mean to the constant cap by
// reclaiming surplus from low-priority units.
func (m *Module) equalize(caps power.Vector, prio []bool, budget power.Budget, constantCap power.Watts, countHigh int) {
	var budgetHigh power.Watts
	for u := range caps {
		if prio[u] {
			budgetHigh += caps[u]
		}
	}
	target := budgetHigh / power.Watts(countHigh)

	if m.cfg.EnforceFloor && target < constantCap {
		// Reclaim surplus (cap − constantCap) from low-priority units until
		// high-priority units can all reach the constant cap.
		needed := (constantCap - target) * power.Watts(countHigh)
		var surplus power.Watts
		for u := range caps {
			if !prio[u] && caps[u] > constantCap {
				surplus += caps[u] - constantCap
			}
		}
		take := needed
		if take > surplus {
			take = surplus
		}
		if surplus > 0 && take > 0 {
			frac := take / surplus
			for u := range caps {
				if !prio[u] && caps[u] > constantCap {
					delta := (caps[u] - constantCap) * frac
					caps[u] -= delta
				}
			}
			target += take / power.Watts(countHigh)
		}
	}

	if target > budget.UnitMax {
		target = budget.UnitMax
	}
	if target < budget.UnitMin {
		target = budget.UnitMin
	}
	for u := range caps {
		if prio[u] {
			caps[u] = target
		}
	}
}
