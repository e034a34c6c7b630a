// Package priority implements the paper's Algorithm 2: classifying every
// power-capping unit as high or low priority from its recent *power
// dynamics* — the frequency of its power changes and the first derivative
// of its power.
//
// Frequency first: a unit whose estimated power history shows more than
// PeakCountThreshold prominent peaks is flagged high-frequency and pinned
// to high priority, because the manager cannot react faster than such a
// unit's phases and must instead guarantee it headroom (this is the
// mechanism behind the constant-allocation lower bound). The flag is
// sticky: it clears only when both the peak count AND the standard
// deviation of the history fall below their thresholds — the extra stddev
// check catches histories that oscillate violently without producing
// countable peaks.
//
// Unpinned units are classified by the windowed average derivative of their
// power: a fast rise marks the unit high priority (it needs power now or
// soon), a fast fall marks it low priority (its tasks are draining), and
// anything in between leaves the previous priority untouched — a unit that
// ramped up stays high priority until its power actually comes back down.
//
// Two mechanisms realize the paper's "(1) need power now" case directly
// (§4.4; see DESIGN.md): a unit pinned at its cap (power within
// AtCapFraction of the cap) is high priority regardless of its derivative
// — throttling is the unambiguous need-power-now signal, and the
// derivative alone cannot see it because a capped unit's power is flat at
// its cap. Conversely, a unit that is unthrottled, flat, and drawing
// almost nothing (below IdleRevertFraction of the constant cap) reverts to
// low priority, so a noise-induced high flag cannot stick to an idle unit
// forever.
package priority

import (
	"fmt"
	"math"

	"dps/internal/history"
	"dps/internal/power"
	"dps/internal/signal"
)

// Config holds Algorithm 2's thresholds.
type Config struct {
	// DerivIncThreshold (W/s): a windowed derivative above this marks the
	// unit high priority.
	DerivIncThreshold power.Watts
	// DerivDecThreshold (W/s, negative): a windowed derivative below this
	// marks the unit low priority.
	DerivDecThreshold power.Watts
	// StdThreshold (W): the history's standard deviation must fall below
	// this (in addition to the peak count) to clear a high-frequency flag.
	StdThreshold power.Watts
	// PeakProminence (W): minimum prominence for a local maximum to count
	// as a peak.
	PeakProminence power.Watts
	// PeakCountThreshold: more prominent peaks than this in the history
	// flags the unit high-frequency.
	PeakCountThreshold int
	// DerivWindow (direv_length): number of history samples spanned by the
	// derivative estimate.
	DerivWindow int
	// MinSamples: units with fewer history samples keep their current
	// priority; the paper notes DPS needs at most one history length
	// (default 20 s) to start making desired decisions.
	MinSamples int
	// AtCapFraction: a unit whose measured power is at least this fraction
	// of its cap is throttled and therefore high priority ("needs power
	// now"). Zero disables the check (ablation).
	AtCapFraction float64
	// IdleRevertFraction: a unit that is not high-frequency, not at its
	// cap, has a dead-zone derivative, and draws less than this fraction
	// of the constant cap reverts to low priority. Zero disables the check.
	IdleRevertFraction float64
}

// DefaultConfig matches the reproduction's one-second loop and 20-sample
// history: a filtered phase ramp of 5 W/s is decisive (a capped unit's
// visible rise is only the gap between its cap and its previous power, ~25 %
// of the cap, further smoothed by the Kalman filter — thresholds must sit
// well below that but well above the ~1 W/s filtered noise floor), and
// three or more 20 W peaks in 20 s mean the unit flips faster than the
// manager can follow.
func DefaultConfig() Config {
	return Config{
		DerivIncThreshold:  5,
		DerivDecThreshold:  -5,
		StdThreshold:       15,
		PeakProminence:     20,
		PeakCountThreshold: 2,
		DerivWindow:        3,
		MinSamples:         3,
		AtCapFraction:      0.95,
		IdleRevertFraction: 0.5,
	}
}

// Validate reports whether the configuration is self-consistent.
func (c Config) Validate() error {
	switch {
	case c.DerivIncThreshold <= 0:
		return fmt.Errorf("priority: DerivIncThreshold %v must be positive", c.DerivIncThreshold)
	case c.DerivDecThreshold >= 0:
		return fmt.Errorf("priority: DerivDecThreshold %v must be negative", c.DerivDecThreshold)
	case c.StdThreshold < 0:
		return fmt.Errorf("priority: negative StdThreshold %v", c.StdThreshold)
	case c.PeakProminence <= 0:
		return fmt.Errorf("priority: PeakProminence %v must be positive", c.PeakProminence)
	case c.PeakCountThreshold < 1:
		return fmt.Errorf("priority: PeakCountThreshold %d must be at least 1", c.PeakCountThreshold)
	case c.DerivWindow < 2:
		return fmt.Errorf("priority: DerivWindow %d must be at least 2", c.DerivWindow)
	case c.MinSamples < 2:
		return fmt.Errorf("priority: MinSamples %d must be at least 2", c.MinSamples)
	case c.AtCapFraction < 0 || c.AtCapFraction > 1:
		return fmt.Errorf("priority: AtCapFraction %v outside [0,1]", c.AtCapFraction)
	case c.IdleRevertFraction < 0 || c.IdleRevertFraction > 1:
		return fmt.Errorf("priority: IdleRevertFraction %v outside [0,1]", c.IdleRevertFraction)
	}
	return nil
}

// Module tracks per-unit priorities across decision steps.
//
// Classification reads each unit's statistics straight off its history
// ring — peak scan over the ring's storage segments, O(1) incremental
// stddev and windowed derivative — so a steady-state update copies
// nothing and allocates nothing. Like the controller's decision round
// that drives it, a Module is not safe for concurrent use.
type Module struct {
	cfg      Config
	highFreq []bool
	prio     []bool
	// DisableFrequency skips the peak/stddev classification entirely (an
	// ablation knob: priorities then come from the derivative alone).
	DisableFrequency bool
}

// New returns a module for n units; all units start low priority.
func New(cfg Config, n int) (*Module, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("priority: non-positive unit count %d", n)
	}
	return &Module{
		cfg:      cfg,
		highFreq: make([]bool, n),
		prio:     make([]bool, n),
	}, nil
}

// Priorities returns the current priority flags (true = high priority).
// The returned slice is owned by the module; callers must not mutate it.
func (m *Module) Priorities() []bool { return m.prio }

// HighFrequency returns the current high-frequency flags. The returned
// slice is owned by the module; callers must not mutate it.
func (m *Module) HighFrequency() []bool { return m.highFreq }

// UpdateUnit reclassifies one unit off its live history ring: the entry
// point the controller's word-mask classify walker calls for every unit
// on the round's work mask whose history is not settled. ring holds the
// unit's estimated power history; pNow and capNow are its current
// measured power and programmed cap (for the at-cap and idle-reversion
// checks); constantCap is the even-split cap. Which units are classified
// in a round, and against which caps vector, is the caller's
// responsibility. The call is copy-free and allocation-free: Freeze reads
// the ring's O(1) running aggregates and scans its storage segments in
// place.
func (m *Module) UpdateUnit(u power.UnitID, ring *history.Ring, pNow, capNow, constantCap power.Watts) {
	m.UpdateUnitFrozen(u, m.Freeze(ring), pNow, capNow, constantCap)
}

// FrozenStats holds the ring-derived inputs of one unit's classification.
// UpdateUnit captures them fresh every call; the controller also keeps a
// capture for each unit whose history is settled (the ring bitwise-fixed
// under its per-round push), so those units classify without touching
// the ring at all — the point at cluster scale, where the ring set is
// tens of megabytes and the frozen stats stream through cache. Only
// ring-derived values are held; live inputs (current power, current cap)
// stay parameters.
type FrozenStats struct {
	// N is ring.Len() at capture (the MinSamples gate input).
	N int
	// Std is ring.StdDev() at capture.
	Std power.Watts
	// Deriv is ring.WindowedDerivative(DerivWindow) at capture.
	Deriv power.Watts
	// HighFreqNow is the frequency detector's verdict at capture: more
	// than PeakCountThreshold prominent peaks in the history.
	HighFreqNow bool
}

// Freeze captures a ring's FrozenStats. The frequency verdict is exactly
// signal.CountProminentPeaks(history) > PeakCountThreshold, but the scan
// runs only where that can be true: behind the O(1) spread bound
// (spreadAdmitsPeaks) and the one-pass swing count inside
// signal.MoreProminentPeaksThan, both necessary conditions.
func (m *Module) Freeze(ring *history.Ring) FrozenStats {
	fs := FrozenStats{
		N:     ring.Len(),
		Std:   ring.StdDev(),
		Deriv: ring.WindowedDerivative(m.cfg.DerivWindow),
	}
	if !m.DisableFrequency && m.cfg.spreadAdmitsPeaks(fs.N, fs.Std) {
		pa, pb := ring.Segments()
		fs.HighFreqNow = signal.MoreProminentPeaksThan(pa, pb, m.cfg.PeakProminence, m.cfg.PeakCountThreshold)
	}
	return fs
}

// spreadAdmitsPeaks reports whether n samples of standard deviation std
// are spread widely enough to hold more than PeakCountThreshold prominent
// peaks; false proves they do not.
//
// k = PeakCountThreshold+1 counted peaks need k highs and k+1 lows
// interleaved with them (the key valley between two neighbouring peaks is
// at least the prominence P below the lower of the two, hence below
// both): 2k+1 distinct samples with every neighbouring high/low pair at
// least P apart. Their sum of squares about any centre is smallest when
// all highs share one level and all lows another P below it (KKT on the
// zig-zag path, multipliers k, 1, k−1, 2, …, k), so
// n·σ² ≥ k(k+1)/(2k+1)·P², and σ·√(n(2k+1)/(k(k+1))) < P rules the peaks
// out — below 5.86 W at the defaults, where every quiet unit and most
// noisy ones sit. The 1e-6 W slack keeps the documented
// incremental-stddev drift (DESIGN.md §8) from ever flipping the screen
// on the boundary.
func (c Config) spreadAdmitsPeaks(n int, std power.Watts) bool {
	k := float64(c.PeakCountThreshold + 1)
	return float64(std)*math.Sqrt(float64(n)*(2*k+1)/(k*(k+1))) >= float64(c.PeakProminence)-1e-6
}

// UpdateUnitFrozen reclassifies one unit from a FrozenStats capture: the
// one body of Algorithm 2. pNow and capNow are live — the at-cap and
// idle-reversion checks must see this round's values even when the
// history is frozen.
func (m *Module) UpdateUnitFrozen(u power.UnitID, fs FrozenStats, pNow, capNow, constantCap power.Watts) {
	if fs.N < m.cfg.MinSamples {
		return // not enough dynamics yet; keep the current priority
	}

	if !m.DisableFrequency {
		if !m.highFreq[u] {
			if fs.HighFreqNow {
				m.highFreq[u] = true
				m.prio[u] = true
				return
			}
		} else {
			if !fs.HighFreqNow && fs.Std < m.cfg.StdThreshold {
				m.highFreq[u] = false
				m.prio[u] = false
				// Fall through to the derivative check: the unit just
				// settled, and its slope decides its fresh priority.
			} else {
				m.prio[u] = true
				return
			}
		}
	}

	// Need-power-now: a unit pinned at its cap is throttled; its flat
	// power hides its true demand, so the derivative below would miss it.
	atCap := m.cfg.AtCapFraction > 0 && capNow > 0 && pNow >= capNow*power.Watts(m.cfg.AtCapFraction)
	if atCap {
		m.prio[u] = true
		return
	}

	// Derivative classification for low-frequency, unthrottled units.
	switch d := fs.Deriv; {
	case d > m.cfg.DerivIncThreshold:
		m.prio[u] = true
	case d < m.cfg.DerivDecThreshold:
		m.prio[u] = false
	default:
		// Dead zone: priority unchanged, per Algorithm 2 — after a power
		// rise the unit stays high priority until its power falls again.
		// Exception: an unthrottled unit drawing almost nothing is idle,
		// not anticipating; revert it so noise-induced flags cannot stick.
		if m.cfg.IdleRevertFraction > 0 && pNow < constantCap*power.Watts(m.cfg.IdleRevertFraction) {
			m.prio[u] = false
		}
	}
}

// ExportState copies the module's sticky per-unit flags into the given
// slices, which must have the module's length. The flags are the
// module's entire cross-round state (the config is construction input).
func (m *Module) ExportState(highFreq, prio []bool) {
	if len(highFreq) != len(m.highFreq) || len(prio) != len(m.prio) {
		panic(fmt.Sprintf("priority: export buffers %d/%d for %d units", len(highFreq), len(prio), len(m.prio)))
	}
	copy(highFreq, m.highFreq)
	copy(prio, m.prio)
}

// ImportState overwrites the module's sticky flags. Future UpdateUnit calls
// behave exactly as if this module had classified the exporting module's
// input history.
func (m *Module) ImportState(highFreq, prio []bool) error {
	if len(highFreq) != len(m.highFreq) || len(prio) != len(m.prio) {
		return fmt.Errorf("priority: state for %d/%d units, module for %d", len(highFreq), len(prio), len(m.prio))
	}
	copy(m.highFreq, highFreq)
	copy(m.prio, prio)
	return nil
}

// Reset clears all flags to the initial (low priority, low frequency)
// state.
func (m *Module) Reset() {
	for i := range m.prio {
		m.prio[i] = false
		m.highFreq[i] = false
	}
}
