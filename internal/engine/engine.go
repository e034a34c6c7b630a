// Package engine runs one decision round of the paper's closed loop
// (Figure 3) without sockets: decide, deliver, and remember what was
// delivered. dpsd, its warm standby and the simulator all run it.
package engine

import (
	"math"
	"math/bits"
	"time"

	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/telemetry"
)

// Engine runs one manager's rounds: Decide, then Commit, single-threaded.
type Engine struct {
	// Prev is what the last committed round delivered; Enforced, per unit,
	// the cap last pushed to its agent, where degraded rounds pin non-fresh
	// units. Both start at the manager's caps.
	Prev, Enforced power.Vector
	// Clock times the manager call: Start and Elapsed are the last
	// Decide's, delivery excluded.
	Clock   func() time.Time
	Start   time.Time
	Elapsed time.Duration

	mgr core.Manager
	dps *core.DPS // mgr, when it is one: stats, priorities, provenance
}

// New returns an engine for mgr, timed by time.Now.
func New(mgr core.Manager) *Engine {
	e := &Engine{mgr: mgr, Prev: mgr.Caps().Clone(), Enforced: mgr.Caps().Clone(), Clock: time.Now}
	e.dps, _ = mgr.(*core.DPS)
	return e
}

// Decide runs the manager on snap and delivers its caps, as a Decision
// ready for telemetry.Round.Fill whose Prev and Enforced stay valid until
// Commit, and the round's stats (zero for a policy other than core.DPS).
func (e *Engine) Decide(snap core.Snapshot) (telemetry.Decision, core.RoundStats) {
	d := telemetry.Decision{Snap: snap, Prev: e.Prev, Enforced: e.Enforced}
	var stats core.RoundStats
	e.Start = e.Clock()
	if e.dps != nil {
		d.Decided, stats = e.dps.DecideStats(snap)
		d.Prio, d.Reasons = e.dps.Priorities(), e.dps.Reasons()
	} else {
		d.Decided = e.mgr.Decide(snap)
	}
	e.Elapsed = e.Clock().Sub(e.Start)
	d.Delivered, d.Budget = e.deliver(d.Decided, snap.Health), e.mgr.Budget().Total
	return d, stats
}

// deliver pins every non-fresh unit at what its agent enforces and, if
// that pushed the sum over the budget, rescales the fresh units toward
// UnitMin by the excess. A round that needed no pin — every healthy one,
// every one of core.DPS — delivers the manager's own vector; a correction
// works on a clone, because the manager owns it.
func (e *Engine) deliver(caps power.Vector, health []core.UnitHealth) power.Vector {
	if health == nil {
		return caps
	}
	var out power.Vector
	for u, h := range health {
		if h != core.HealthFresh && caps[u] != e.Enforced[u] {
			if out == nil {
				out = caps.Clone()
			}
			out[u] = e.Enforced[u]
		}
	}
	if out == nil {
		return caps
	}
	const eps = 1e-9
	budget := e.mgr.Budget()
	if excess := out.Sum() - budget.Total; excess > eps {
		var headroom power.Watts
		for u, h := range health {
			if h == core.HealthFresh && out[u] > budget.UnitMin {
				headroom += out[u] - budget.UnitMin
			}
		}
		if headroom > 0 {
			frac := min(excess/headroom, 1)
			for u, h := range health {
				if h == core.HealthFresh && out[u] > budget.UnitMin {
					out[u] -= frac * (out[u] - budget.UnitMin)
				}
			}
		}
	}
	return out
}

// Commit records a delivered round: Prev becomes delivered, and so does
// Enforced for the units set in pushed (bit u&63 of word u>>6), whose
// agents took the push. A nil pushed means every unit.
func (e *Engine) Commit(delivered power.Vector, pushed []uint64) {
	copy(e.Prev, delivered)
	if pushed == nil {
		copy(e.Enforced, delivered)
		return
	}
	for wi, w := range pushed {
		lo := wi << 6
		if w == math.MaxUint64 { // 64 pushed units: one copy
			copy(e.Enforced[lo:lo+64], delivered[lo:lo+64])
			continue
		}
		for ; w != 0; w &= w - 1 {
			u := lo | bits.TrailingZeros64(w)
			e.Enforced[u] = delivered[u]
		}
	}
}

// Digest folds caps' float bits and the controller's step count (0 for a
// policy without one) by word-wise FNV-1a, each step a bijection, so no
// single-unit difference cancels: a standby's check on a replayed round.
func (e *Engine) Digest(caps power.Vector) uint64 {
	h := uint64(0xcbf29ce484222325)
	if e.dps != nil {
		h ^= e.dps.Steps()
	}
	for _, c := range caps {
		h = (h ^ math.Float64bits(float64(c))) * 0x100000001b3
	}
	return h
}
