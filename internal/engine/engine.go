// Package engine runs one decision round of the paper's closed loop
// (Figure 3) without sockets: decide, deliver, and remember what was
// delivered. dpsd, its warm standby and the simulator all run it.
package engine

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/telemetry"
)

// Engine runs one manager's rounds: Decide or Follow, then Commit, single-threaded.
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
	// held is Decision.Held's storage, out a delivered vector's when
	// delivery fits one (allocated by the first such round: a healthy
	// core.DPS fleet never needs it).
	held []uint64
	out  power.Vector
}

// New returns an engine for mgr, timed by time.Now.
func New(mgr core.Manager) *Engine {
	e := &Engine{mgr: mgr, Prev: mgr.Caps().Clone(), Enforced: mgr.Caps().Clone(), Clock: time.Now}
	e.dps, _ = mgr.(*core.DPS)
	e.held = make([]uint64, (len(e.Prev)+63)/64)
	return e
}

// Decide runs the manager on snap and delivers its caps, as a Decision
// ready for telemetry.Round.Fill whose Prev and Enforced stay valid until
// Commit, and the round's stats (zero for a policy other than core.DPS).
func (e *Engine) Decide(snap core.Snapshot) (telemetry.Decision, core.RoundStats) {
	d := telemetry.Decision{Snap: snap, Prev: e.Prev, Enforced: e.Enforced}
	var stats core.RoundStats
	if e.dps != nil && !slices.Equal(e.dps.Caps(), e.Prev) {
		// Delivery held these units off the controller's vector: a cap
		// the controller leaves alone may still move, as delivery lets go.
		clear(e.held)
		for u, c := range e.dps.Caps() {
			if c != e.Prev[u] {
				e.held[u>>6] |= 1 << (u & 63)
			}
		}
		d.Held = e.held
	}
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

// Follow replays a round another engine decided, as a standby does: it
// adopts the budget that round was decided under, decides snap, and checks
// the delivered caps against the other engine's Digest of its own. An
// error means this engine no longer provably holds the other's state.
func (e *Engine) Follow(snap core.Snapshot, budget power.Watts, digest uint64) (d telemetry.Decision, stats core.RoundStats, err error) {
	if budget != e.mgr.Budget().Total {
		if e.dps == nil {
			return d, stats, fmt.Errorf("budget moved to %v under a policy that cannot follow it", budget)
		}
		if err = e.dps.SetTotalBudget(budget); err != nil {
			return d, stats, err
		}
	}
	if d, stats = e.Decide(snap); e.Digest(d.Delivered) != digest {
		err = errors.New("replayed caps differ from the primary's")
	}
	return d, stats, err
}

// deliver fits the manager's caps with core.Fit, pinning every non-fresh
// unit at what its agent enforces. core.DPS fits its own vector, pinned
// at its own previous caps, so its vector is fitted again only where a
// non-fresh unit's cap is not what its agent enforces; otherwise it goes
// out as it is, the manager's own. Any other policy's vector is fitted
// every round. A fit works on a copy, because the manager owns its vector.
func (e *Engine) deliver(caps power.Vector, health []core.UnitHealth) power.Vector {
	if e.dps != nil && !e.pinMoves(caps, health) {
		return caps
	}
	if e.out == nil {
		e.out = make(power.Vector, len(caps))
	}
	copy(e.out, caps)
	core.Fit(e.out, e.Enforced, health, e.mgr.Budget())
	return e.out
}

// pinMoves reports whether some non-fresh unit's cap in caps is not what
// its agent enforces.
func (e *Engine) pinMoves(caps power.Vector, health []core.UnitHealth) bool {
	for u, h := range health {
		if h != core.HealthFresh && caps[u] != e.Enforced[u] {
			return true
		}
	}
	return false
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
