// Package stateless implements the paper's Algorithm 1: a
// Multiplicative-Increase-Multiplicative-Decrease (MIMD) power-cap
// controller modeled on SLURM's power management plugin.
//
// The module looks only at the current power of each unit. Units drawing
// well below their cap have the cap cut multiplicatively (releasing budget),
// and units pressing against their cap receive a multiplicative raise from
// whatever budget remains, visited in random order so no unit is
// systematically favoured. Used alone this module *is* the SLURM baseline;
// inside DPS its output is the temporary allocation the cap-readjusting
// module corrects.
package stateless

import (
	"fmt"
	"math/bits"
	"math/rand"

	"dps/internal/power"
)

// Config holds Algorithm 1's four tuning parameters.
type Config struct {
	// IncThreshold is the fraction of its cap a unit's power must exceed to
	// be considered capped and eligible for an increase (inc_threshold).
	IncThreshold float64
	// DecThreshold is the fraction of its cap a unit's power must fall
	// below for the cap to be decreased (dec_threshold).
	DecThreshold float64
	// IncFactor is the multiplicative raise applied to an eligible unit's
	// cap (inc_percentile, > 1).
	IncFactor float64
	// DecFactor is the multiplicative cut applied to an idle unit's cap
	// (dec_percentile, < 1). The cap never drops below the unit's current
	// power.
	DecFactor float64
}

// DefaultConfig mirrors the behaviour of SLURM's plugin defaults scaled to
// a one-second decision loop: treat a unit as capped when it is within 5 %
// of its cap, reclaim budget when it draws less than 80 % of its cap,
// raise caps 5 % per step and cut them 15 % per step. The conservative
// raise is what makes the pure stateless policy slow to follow fast phase
// transitions (the behaviour DPS's priority mechanism fixes); raising it
// is an ablation, not a fairness fix, because the stuck-at-cap starvation
// of Figure 1 persists at any rate.
func DefaultConfig() Config {
	return Config{
		IncThreshold: 0.95,
		DecThreshold: 0.80,
		IncFactor:    1.05,
		DecFactor:    0.85,
	}
}

// Validate reports whether the configuration is self-consistent.
func (c Config) Validate() error {
	switch {
	case c.IncThreshold <= 0 || c.IncThreshold > 1:
		return fmt.Errorf("stateless: IncThreshold %v outside (0,1]", c.IncThreshold)
	case c.DecThreshold < 0 || c.DecThreshold >= 1:
		return fmt.Errorf("stateless: DecThreshold %v outside [0,1)", c.DecThreshold)
	case c.DecThreshold >= c.IncThreshold:
		return fmt.Errorf("stateless: DecThreshold %v >= IncThreshold %v", c.DecThreshold, c.IncThreshold)
	case c.IncFactor <= 1:
		return fmt.Errorf("stateless: IncFactor %v must exceed 1", c.IncFactor)
	case c.DecFactor <= 0 || c.DecFactor >= 1:
		return fmt.Errorf("stateless: DecFactor %v outside (0,1)", c.DecFactor)
	}
	return nil
}

// RegisterLen is the length, in 64-bit words, of the generator's feedback
// register; regTap is the distance between its two taps.
const (
	RegisterLen = 607
	regTap      = 273
)

// source is math/rand's generator, owned: the additive lagged-Fibonacci
// register x[n] = x[n-607] + x[n-273] mod 2^64, with the same seeding,
// so rand.New over it emits the stream rand.New(rand.NewSource(seed))
// would (TestSourceMatchesMathRand pins that, draw path by draw path).
// Owning the register makes the PRNG's state something a snapshot can
// carry whole — 607 words and a position — where the standard source is
// opaque and can only be brought to a position by drawing up to it.
// Int63 and Uint64 both advance the register exactly once, so draws
// counts every path rand.Rand takes.
type source struct {
	vec   [RegisterLen]uint64
	tap   int // index of the tap word last read, stepping down; TapAt(draws)
	draws uint64
}

// TapAt returns the register's tap position after draws advances: the
// taps step down one slot per draw, so the position is a function of
// draws mod RegisterLen — which is what lets a snapshot cross-check a
// stored register against the draw count stored beside it.
func TapAt(draws uint64) int {
	return int((RegisterLen - draws%RegisterLen) % RegisterLen)
}

// feedAt returns the slot a draw with its tap at tap sums into: the
// second tap, regTap slots behind the first.
func feedAt(tap int) int {
	if tap < regTap {
		return tap + RegisterLen - regTap
	}
	return tap - regTap
}

func (s *source) Uint64() uint64 {
	s.draws++
	if s.tap--; s.tap < 0 {
		s.tap += RegisterLen
	}
	feed := feedAt(s.tap)
	x := s.vec[feed] + s.vec[s.tap]
	s.vec[feed] = x
	return x
}

func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Seed puts the register in the state math/rand's source has after
// Seed(seed), without a copy of its seed table: each draw overwrites the
// slot it fed from, so the standard source's first RegisterLen outputs
// are its register after RegisterLen draws, and running the recurrence
// backwards over them (a draw changes one word, by adding another that
// it leaves alone) recovers the register as seeded.
func (s *source) Seed(seed int64) {
	std := rand.NewSource(seed).(rand.Source64)
	s.tap, s.draws = 0, 0
	for k := 0; k < RegisterLen; k++ {
		s.tap = (s.tap + RegisterLen - 1) % RegisterLen
		s.vec[feedAt(s.tap)] = std.Uint64()
	}
	// tap is that of the last draw: undo it, step back, repeat. A whole
	// turn in each direction leaves tap where a fresh source has it.
	for k := 0; k < RegisterLen; k++ {
		s.vec[feedAt(s.tap)] -= s.vec[s.tap]
		s.tap = (s.tap + 1) % RegisterLen
	}
}

// Module is a reusable MIMD controller. It is deterministic given its seed:
// the random visiting order of the cap-increasing loop comes from an owned
// PRNG so experiments are reproducible.
type Module struct {
	cfg   Config
	rng   *rand.Rand
	src   *source
	order []int // scratch permutation of eligible units, reused across steps
}

// New returns a module with the given configuration and seed.
func New(cfg Config, seed int64) (*Module, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := &source{}
	src.Seed(seed)
	return &Module{cfg: cfg, rng: rand.New(src), src: src}, nil
}

// RNGDraws returns the number of PRNG state advances consumed so far.
func (m *Module) RNGDraws() uint64 { return m.src.draws }

// ExportRegister copies the generator's register into reg and returns
// its tap position, TapAt(RNGDraws()). Register and draw count are the
// module's complete randomness state.
func (m *Module) ExportRegister(reg *[RegisterLen]uint64) (tap int) {
	*reg = m.src.vec
	return m.src.tap
}

// RestoreRegister installs an exported register at the position draws
// advances imply: the module continues the exporter's stream from there,
// at a cost that does not depend on draws.
func (m *Module) RestoreRegister(reg *[RegisterLen]uint64, draws uint64) {
	m.src.vec = *reg
	m.src.tap, m.src.draws = TapAt(draws), draws
}

// Apply runs one MIMD step: given each unit's current power it mutates caps
// in place, never letting the sum of caps exceed budget.Total nor any cap
// leave [budget.UnitMin, budget.UnitMax].
//
// Deviation from the paper's pseudocode (documented in DESIGN.md): the
// increase loop raises a cap to min(cap·IncFactor, cap+avail, UnitMax) and
// deducts only the delta from the available budget; the paper's literal
// text would overwrite the cap with the leftover budget and double-charge
// it.
func (m *Module) Apply(powerNow power.Vector, caps power.Vector, budget power.Budget) {
	if len(powerNow) != len(caps) {
		panic(fmt.Sprintf("stateless: %d readings for %d caps", len(powerNow), len(caps)))
	}

	// First loop: decrease caps of units drawing well below them.
	for u := range caps {
		if powerNow[u] < caps[u]*power.Watts(m.cfg.DecThreshold) {
			next := caps[u] * power.Watts(m.cfg.DecFactor)
			if powerNow[u] > next {
				next = powerNow[u]
			}
			if next < budget.UnitMin {
				next = budget.UnitMin
			}
			caps[u] = next
		}
	}

	m.raise(powerNow, caps, budget, budget.Total-caps.Sum())
}

// raise is the second loop, shared by Apply and ApplyMasked: increase the
// caps of capped units, in random order, out of avail watts of unassigned
// budget; it reports whether any cap moved. Only eligible (near-cap)
// units are collected and shuffled: a unit's eligibility is fixed once
// the decrease pass ends (raises touch only the raised unit's own cap),
// so the permutation of the ineligible majority could never matter —
// shuffling just the eligible set draws the same uniform visiting order
// over the units that act at O(capped) instead of O(n) PRNG cost. In an
// overprovisioned steady state the eligible set is empty and the pass is
// a predicate scan. With nothing to hand out the PRNG is not consumed.
func (m *Module) raise(powerNow, caps power.Vector, budget power.Budget, avail power.Watts) (raised bool) {
	if avail <= 0 {
		return false
	}
	m.collectEligible(powerNow, caps)
	m.shuffleOrder()
	for _, u := range m.order {
		if avail <= 0 {
			break
		}
		next := caps[u] * power.Watts(m.cfg.IncFactor)
		if max := caps[u] + avail; next > max {
			next = max
		}
		if next > budget.UnitMax {
			next = budget.UnitMax
		}
		if next > caps[u] {
			avail -= next - caps[u]
			caps[u] = next
			raised = true
		}
	}
	return raised
}

// ApplyMasked is Apply with the decrease pass restricted to the units
// whose bits are set in visit (least-significant bit of visit[0] = unit
// 0). A clear bit is the caller's guarantee that the unit's
// (powerNow[u], caps[u]) pair is unchanged since a previous
// Apply/ApplyMasked step on this module in which the decrease pass left
// its cap unchanged — skipping it is then a provable no-op and the
// result is bitwise identical to Apply. The increase pass always runs in
// full: it depends on the shared available-budget pool and the random
// visiting order, not on per-unit staleness.
//
// cachedSum with sumValid=true must be the bitwise value caps.Sum()
// would return on entry; it is used for the available-budget computation
// only when the decrease pass moved nothing (otherwise the sum is
// recomputed). The PRNG stream stays aligned with Apply's: the eligible
// set is collected iff avail > 0 and shuffled iff non-empty, and both
// avail and the set are bitwise identical by construction.
//
// decChanged/raiseChanged report whether the decrease or increase pass
// moved any cap.
func (m *Module) ApplyMasked(powerNow power.Vector, caps power.Vector, budget power.Budget, visit []uint64, cachedSum power.Watts, sumValid bool) (decChanged, raiseChanged bool) {
	n := len(caps)
	if len(powerNow) != n {
		panic(fmt.Sprintf("stateless: %d readings for %d caps", len(powerNow), n))
	}
	if len(visit)*64 < n {
		panic(fmt.Sprintf("stateless: visit mask covers %d units, need %d", len(visit)*64, n))
	}

	for wi, w := range visit {
		if w == 0 {
			continue
		}
		base := wi << 6
		for w != 0 {
			u := base + bits.TrailingZeros64(w)
			w &= w - 1
			if u >= n {
				break
			}
			if powerNow[u] < caps[u]*power.Watts(m.cfg.DecThreshold) {
				next := caps[u] * power.Watts(m.cfg.DecFactor)
				if powerNow[u] > next {
					next = powerNow[u]
				}
				if next < budget.UnitMin {
					next = budget.UnitMin
				}
				if next != caps[u] {
					caps[u] = next
					decChanged = true
				}
			}
		}
	}

	sum := cachedSum
	if decChanged || !sumValid {
		sum = caps.Sum()
	}
	return decChanged, m.raise(powerNow, caps, budget, budget.Total-sum)
}

// collectEligible fills m.order with the units eligible for a raise, in
// unit order. Apply and ApplyMasked both reach here with bitwise
// identical (powerNow, caps), so both collect the same list and consume
// the same PRNG draws — the alignment the masked path's equivalence
// contract needs.
func (m *Module) collectEligible(powerNow, caps power.Vector) {
	if cap(m.order) < len(caps) {
		m.order = make([]int, 0, len(caps))
	}
	m.order = m.order[:0]
	thr := power.Watts(m.cfg.IncThreshold)
	for u := range caps {
		if powerNow[u] > caps[u]*thr {
			m.order = append(m.order, u)
		}
	}
}

// shuffleOrder permutes m.order uniformly at random. The PRNG is only
// consumed when the list is non-empty, and only len(order)-1 draws are
// made — deterministic given the module's seed and input history.
func (m *Module) shuffleOrder() {
	if len(m.order) == 0 {
		return
	}
	m.rng.Shuffle(len(m.order), func(i, j int) {
		m.order[i], m.order[j] = m.order[j], m.order[i]
	})
}
