package core

import (
	"fmt"
	"time"

	"dps/internal/history"
	"dps/internal/kalman"
	"dps/internal/power"
	"dps/internal/priority"
	"dps/internal/readjust"
	"dps/internal/stateless"
	"dps/internal/trace"
)

// Config assembles a DPS controller.
type Config struct {
	// Units is the number of power-capping units (sockets) managed.
	Units int
	// Budget is the cluster-wide power envelope.
	Budget power.Budget
	// HistoryLen is the number of estimated power samples kept per unit
	// (the paper's default is 20, i.e. 20 s of state at dT = 1 s).
	HistoryLen int
	// Stateless configures the Algorithm 1 MIMD stage.
	Stateless stateless.Config
	// Kalman configures the per-unit measurement filters.
	Kalman kalman.Config
	// Priority configures the Algorithm 2 classification stage.
	Priority priority.Config
	// Readjust configures the Algorithm 3/4 stage.
	Readjust readjust.Config
	// Seed makes the stateless module's random visiting order reproducible.
	Seed int64
	// SparseRefreshEvery forces every unit through full per-unit
	// processing (Kalman step, history push, classification off the live
	// ring, a visit by the MIMD decrease pass) at least once every this
	// many rounds, a rotating block per round. Between refreshes a unit whose state provably cannot have
	// changed — reading unchanged, filter and ring at their bitwise fixed
	// point, cap untouched — is skipped; the contract is bitwise, so the
	// period changes only the work done (and the DirtyUnits/SkippedUnits
	// stats), never a cap or a decision outcome. See DESIGN.md §13.
	// 0 means DefaultSparseRefreshEvery; 1 never skips a unit, which is
	// the reference configuration the equivalence suites compare against.
	SparseRefreshEvery int

	// Ablation knobs (all false in the paper's system).

	// DisableKalman feeds raw readings straight into the power history.
	DisableKalman bool
	// DisableFrequency turns off high-frequency detection; priorities come
	// from the derivative alone.
	DisableFrequency bool
	// DisableRestore turns off Algorithm 3.
	DisableRestore bool
	// DisablePriority turns off Algorithms 2–4 entirely, reducing DPS to
	// its stateless module (the SLURM baseline with DPS's plumbing).
	DisablePriority bool
}

// DefaultConfig returns the paper's defaults for n units under the given
// budget.
func DefaultConfig(n int, budget power.Budget) Config {
	return Config{
		Units:      n,
		Budget:     budget,
		HistoryLen: 20,
		Stateless:  stateless.DefaultConfig(),
		Kalman:     kalman.DefaultConfig(),
		Priority:   priority.DefaultConfig(),
		Readjust:   readjust.DefaultConfig(),
		Seed:       1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Budget.Validate(c.Units); err != nil {
		return err
	}
	if c.HistoryLen < 2 {
		return fmt.Errorf("core: HistoryLen %d must be at least 2", c.HistoryLen)
	}
	if c.SparseRefreshEvery < 0 {
		return fmt.Errorf("core: negative SparseRefreshEvery %d", c.SparseRefreshEvery)
	}
	if err := c.Stateless.Validate(); err != nil {
		return err
	}
	if err := c.Priority.Validate(); err != nil {
		return err
	}
	return c.Readjust.Validate()
}

// DPS is the Dynamic Power Scheduler: stateless MIMD base decision, Kalman
// estimation, power-dynamics priorities, and cap readjustment, exactly the
// four-module pipeline of the paper's Figure 3.
type DPS struct {
	cfg         Config
	constantCap power.Watts

	statelessM *stateless.Module
	filters    *kalman.Bank
	hist       *history.Set
	priorityM  *priority.Module
	readjustM  *readjust.Module

	caps power.Vector
	// held is scratch for degraded rounds: the caps non-fresh units are
	// pinned at (their previous delivered caps). Allocated on the first
	// degraded round; nil until then so healthy operation costs nothing.
	held power.Vector

	lastRestored bool
	steps        uint64

	// Cap provenance, maintained lazily: reasons[u] is the last module
	// that moved unit u's cap this round and stageCaps the per-stage diff
	// baseline. provDirty marks that a round left tags behind, so the next
	// round must re-baseline; moverless rounds — the steady state once
	// readings hold still — skip both O(units) passes.
	reasons   []trace.Reason
	stageCaps power.Vector
	provDirty bool

	// tracer, when set and enabled, receives one span per pipeline stage
	// per round. Nil by default; every site is guarded by tracer.On(), a
	// nil-safe atomic load, so the disabled path costs one branch.
	tracer *trace.Recorder

	// Skip bookkeeping for the word-mask walkers (sparse.go): one bit per
	// unit, 64 units per word.
	refreshEvery int
	nWords       int
	tailMask     uint64   // valid bits of the last mask word
	settledW     []uint64 // units whose per-unit state is bitwise fixed
	settledNowW  []uint64 // scratch: units whose settle certificate was issued this round
	dirtyW       []uint64 // this round's changed-reading set
	capMovedW    []uint64 // units whose caps moved during the previous round
	roundMovedW  []uint64 // units whose caps moved so far this round
	visitW       []uint64 // scratch: the MIMD decrease pass's visit mask
	lastVal      power.Vector
	lastStep     []uint64 // round of each unit's last full processing
	frozen       []priority.FrozenStats
	lastDT       power.Seconds
	highCount    int // maintained incrementally: count of true prio flags
	cachedSum    power.Watts
	sumValid     bool
	anyMove      bool // any cap moved this round (stage notes maintain it)
}

// StageTimings is the wall time one Decide call spent in each stage of the
// Figure 3 pipeline.
type StageTimings struct {
	// Kalman covers filtering plus the history push.
	Kalman time.Duration
	// Stateless is Algorithm 1, the MIMD base decision.
	Stateless time.Duration
	// Priority is Algorithm 2, the power-dynamics classification.
	Priority time.Duration
	// Readjust is Algorithms 3/4 (restore, then grant or equalize).
	Readjust time.Duration
}

// RoundStats describes one decision round for observability: stage
// timings and decision outcomes. DecideStats returns it alongside the cap
// vector.
type RoundStats struct {
	// Step is the 1-based decision round this records.
	Step uint64
	// Timings holds per-stage wall time.
	Timings StageTimings
	// Total is the wall time of the whole Decide call.
	Total time.Duration
	// Restored reports Algorithm 3 fired (all units quiet; caps reset).
	Restored bool
	// HighPriority is the number of units classified high priority.
	HighPriority int
	// PriorityFlips is the number of units whose priority changed since
	// the previous round.
	PriorityFlips int
	// BudgetExhausted reports Algorithm 4 took the equalize branch
	// (no leftover budget to grant).
	BudgetExhausted bool
	// BudgetClamped reports that the round's Fit returned a shortfall:
	// the pinned units' caps plus UnitMin for every fresh unit sum to more
	// than the budget, so no cap vector could fit it and the round is
	// infeasible (ROADMAP 3(c)). A restore under a lower budget produces
	// one: every unit stays pinned at the donor's caps until its agent
	// registers. The daemon counts these rounds in
	// dps_budget_violations_total.
	BudgetClamped bool
	// StaleUnits and DeadUnits count units frozen at their current caps
	// this round because their telemetry went stale or their agent is
	// presumed dead (see UnitHealth).
	StaleUnits int
	DeadUnits  int
	// DirtyUnits is the number of units whose reading changed since the
	// previous round, DirtyFrac the same as a fraction of all units, and
	// SkippedUnits the number of fresh units whose per-unit stage work
	// was elided this round as a proven bitwise no-op.
	DirtyUnits   int
	SkippedUnits int
	DirtyFrac    float64
}

// DefaultSparseRefreshEvery is the forced-refresh period used when
// Config.SparseRefreshEvery is zero, mirroring the agent-side
// delta plane's RefreshEvery default: every unit gets full
// per-unit processing at least once per this many rounds.
const DefaultSparseRefreshEvery = 64

var _ Manager = (*DPS)(nil)

// NewDPS builds a DPS controller. All units start at the constant cap, the
// same initial condition as constant allocation.
func NewDPS(cfg Config) (*DPS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sm, err := stateless.New(cfg.Stateless, cfg.Seed)
	if err != nil {
		return nil, err
	}
	filters, err := kalman.NewBank(cfg.Units, cfg.Kalman)
	if err != nil {
		return nil, err
	}
	pm, err := priority.New(cfg.Priority, cfg.Units)
	if err != nil {
		return nil, err
	}
	pm.DisableFrequency = cfg.DisableFrequency
	rm, err := readjust.New(cfg.Readjust)
	if err != nil {
		return nil, err
	}
	rm.DisableRestore = cfg.DisableRestore
	nWords := (cfg.Units + 63) / 64
	d := &DPS{
		cfg:         cfg,
		constantCap: gridConstantCap(cfg.Budget, cfg.Units),
		statelessM:  sm,
		filters:     filters,
		hist:        history.NewSet(cfg.Units, cfg.HistoryLen),
		priorityM:   pm,
		readjustM:   rm,
		caps:        power.NewVector(cfg.Units, 0),
		reasons:     make([]trace.Reason, cfg.Units),
		stageCaps:   power.NewVector(cfg.Units, 0),

		refreshEvery: cfg.SparseRefreshEvery,
		nWords:       nWords,
		tailMask:     ^uint64(0),
		settledW:     make([]uint64, nWords),
		settledNowW:  make([]uint64, nWords),
		dirtyW:       make([]uint64, nWords),
		capMovedW:    make([]uint64, nWords),
		roundMovedW:  make([]uint64, nWords),
		visitW:       make([]uint64, nWords),
		lastVal:      power.NewVector(cfg.Units, 0),
		lastStep:     make([]uint64, cfg.Units),
		frozen:       make([]priority.FrozenStats, cfg.Units),
	}
	for i := range d.caps {
		d.caps[i] = d.constantCap
	}
	copy(d.stageCaps, d.caps)
	// The rings maintain an O(1) tail-duration aggregate sized to the
	// derivative window, so the priority stage's windowed derivative never
	// rescans durations (DerivWindow samples span DerivWindow−1 intervals).
	d.hist.SetTailWindow(cfg.Priority.DerivWindow - 1)
	if d.refreshEvery == 0 {
		d.refreshEvery = DefaultSparseRefreshEvery
	}
	if tail := uint(cfg.Units & 63); tail != 0 {
		d.tailMask = (uint64(1) << tail) - 1
	}
	// Round 1 must visit everyone: no unit has a settle certificate yet
	// and every cap is "new" to the MIMD decrease pass.
	d.setAllWords(d.capMovedW)
	return d, nil
}

// setAllWords sets every valid unit bit in a sparse mask.
func (d *DPS) setAllWords(w []uint64) {
	for i := range w {
		w[i] = ^uint64(0)
	}
	if d.nWords > 0 {
		w[d.nWords-1] = d.tailMask
	}
}

// Close releases nothing — the controller owns no goroutines or handles —
// and exists so callers that manage a controller's lifetime have one
// method to call.
func (d *DPS) Close() error { return nil }

// Name implements Manager.
func (d *DPS) Name() string {
	if d.cfg.DisablePriority {
		return "DPS(stateless-only)"
	}
	return "DPS"
}

// Budget implements Manager.
func (d *DPS) Budget() power.Budget { return d.cfg.Budget }

// Caps implements Manager.
func (d *DPS) Caps() power.Vector { return d.caps }

// ConstantCap returns the per-unit constant allocation cap (budget divided
// evenly), DPS's initial condition and restoration target.
func (d *DPS) ConstantCap() power.Watts { return d.constantCap }

// Priorities returns the current high-priority flags, for logging (the
// paper's artifact logs priority per socket per decision). The slice is
// owned by the controller.
func (d *DPS) Priorities() []bool { return d.priorityM.Priorities() }

// Restored reports whether the last Decide call triggered Algorithm 3's
// restoration.
func (d *DPS) Restored() bool { return d.lastRestored }

// Steps returns the number of Decide calls so far.
func (d *DPS) Steps() uint64 { return d.steps }

// SetTracer attaches a span recorder: every subsequent decision round
// records one span per pipeline stage (kalman, stateless, priority,
// readjust, health_pin, plus a whole-round decide span), trace-scoped to
// the round number. A nil recorder — or an attached but disabled one —
// restores the zero-cost path. Call between rounds, not concurrently
// with DecideStats.
func (d *DPS) SetTracer(tr *trace.Recorder) { d.tracer = tr }

// Reasons returns per-unit cap provenance for the most recent decision
// round: which module last moved each unit's cap. trace.ReasonNone means
// the cap left the round as it entered (the conservation property
// provenance_test.go pins); the converse need not hold — a cap can be
// moved and moved back. The slice is owned by the controller, rewritten
// by the next round that moves a cap (moverless rounds pay nothing for
// provenance upkeep) and obeys DecideStats's single-threaded contract:
// read it before the next round starts, and do not mutate it.
func (d *DPS) Reasons() []trace.Reason { return d.reasons }

// Decide implements Manager: one pass of the Figure 3 pipeline. Callers
// that also need the round's stats should use DecideStats.
func (d *DPS) Decide(snap Snapshot) power.Vector {
	caps, _ := d.DecideStats(snap)
	return caps
}

// DecideStats runs one pass of the Figure 3 pipeline and returns the new
// cap vector together with the round's stats. The vector is owned by the
// controller (same contract as Decide); the stats are a plain value the
// caller keeps. Decision rounds are single-threaded: DecideStats must not
// be called concurrently with itself, Decide, or Reset.
func (d *DPS) DecideStats(snap Snapshot) (power.Vector, RoundStats) {
	if len(snap.Power) != d.cfg.Units {
		panic(fmt.Sprintf("core: %d readings for %d units", len(snap.Power), d.cfg.Units))
	}
	if snap.Health != nil && len(snap.Health) != d.cfg.Units {
		panic(fmt.Sprintf("core: %d health states for %d units", len(snap.Health), d.cfg.Units))
	}
	dt := snap.Interval
	if dt <= 0 {
		dt = 1
	}
	d.steps++
	stats := RoundStats{Step: d.steps}
	start := time.Now()

	// Provenance re-baseline, skipped when the previous round moved
	// nothing: the tags are then still all ReasonNone and both baselines
	// already equal the live caps bit for bit.
	if d.provDirty {
		clear(d.reasons)
		copy(d.stageCaps, d.caps)
		d.provDirty = false
	}
	d.anyMove = false

	// Degraded-mode setup: a round is degraded when any unit is non-fresh.
	// Non-fresh units are pinned at their current caps — the caps their
	// agents last applied (stale: frozen until telemetry recovers; dead:
	// reserved because the node keeps enforcing them) — and contribute no
	// new state to the filters, history, or priorities. An all-fresh
	// health slice takes the exact healthy path.
	health := snap.Health
	if health != nil {
		degraded := false
		for _, h := range health {
			switch h {
			case HealthStale:
				stats.StaleUnits++
				degraded = true
			case HealthDead:
				stats.DeadUnits++
				degraded = true
			}
		}
		if !degraded {
			health = nil
		} else {
			if d.held == nil {
				d.held = make(power.Vector, d.cfg.Units)
			}
			copy(d.held, d.caps)
		}
	}

	rlo, rhi := d.beginSparseRound(snap, dt, health, &stats)

	// Kalman estimation feeds the power history (the controller's state).
	// Only dirty, unsettled, or refresh-due units are processed — eliding a
	// settled unit's push is a proven bitwise no-op (see
	// history.Ring.SettledFor). Non-fresh units are skipped: their reading
	// is a replay of the last accepted report, and pushing it would
	// fabricate a flat, confident history out of no information.
	processed := d.sparseKalmanWords(snap.Power, health, dt, rlo, rhi)
	stats.SkippedUnits = d.cfg.Units - processed - stats.StaleUnits - stats.DeadUnits
	stats.DirtyFrac = float64(stats.DirtyUnits) / float64(d.cfg.Units)
	mark := time.Now()
	stats.Timings.Kalman = mark.Sub(start)
	if d.tracer.On() {
		d.tracer.Record(d.steps, trace.SpanKalman, trace.LaneDecide, -1, start, stats.Timings.Kalman)
	}

	// Stateless module: temporary cap allocation from current power alone.
	// Global and sequential — its random visiting order is part of the
	// deterministic contract. The decrease pass is masked to units whose
	// (power, cap) pair can have changed since their last no-op visit, plus
	// the refresh block — so at SparseRefreshEvery: 1 the pass visits every
	// unit and owes nothing to the mover bookkeeping. The increase pass
	// always runs in full (it shares one budget pool and the seeded
	// visiting order).
	for i, w := range d.dirtyW {
		d.visitW[i] = w | d.capMovedW[i] | WordMaskForRange(rlo, rhi, i<<6)
	}
	decCh, raiseCh := d.statelessM.ApplyMasked(snap.Power, d.caps, d.cfg.Budget, d.visitW, d.cachedSum, d.sumValid)
	if decCh || raiseCh {
		d.sumValid = false
		d.noteStatelessChanges()
	}
	now := time.Now()
	stats.Timings.Stateless = now.Sub(mark)
	if d.tracer.On() {
		d.tracer.Record(d.steps, trace.SpanStateless, trace.LaneDecide, -1, mark, stats.Timings.Stateless)
	}
	mark = now

	d.lastRestored = false
	if !d.cfg.DisablePriority {
		// Priority module: power dynamics → high/low priority per unit.
		// Only units whose inputs can have changed — dirty reading,
		// unsettled history, cap moved last round or by this round's MIMD
		// pass, or refresh-due — are reclassified; settled off-mask units
		// provably keep their flags, and non-fresh units keep theirs frozen
		// alongside their cap. The high count is maintained incrementally
		// from the observed transitions.
		flips, highDelta := d.sparseClassifyWords(snap.Power, health, rlo, rhi)
		d.highCount += highDelta
		stats.PriorityFlips = flips
		stats.HighPriority = d.highCount
		now = time.Now()
		stats.Timings.Priority = now.Sub(mark)
		if d.tracer.On() {
			d.tracer.Record(d.steps, trace.SpanPriority, trace.LaneDecide, -1, mark, stats.Timings.Priority)
		}
		mark = now

		// Cap readjusting module: restore, else readjust. Global: grant
		// order and the budget arithmetic span all units.
		d.lastRestored = d.readjustM.Restore(snap.Power, d.caps, d.constantCap)
		if d.lastRestored {
			d.noteCapChanges(trace.ReasonRestore)
		} else {
			// The incrementally maintained high count replaces Readjust's
			// O(N) priority rescan; same bits.
			outcome := d.readjustM.ReadjustCounted(d.caps, d.priorityM.Priorities(), d.cfg.Budget, d.constantCap, d.highCount)
			stats.BudgetExhausted = outcome == readjust.OutcomeEqualize
			switch outcome {
			case readjust.OutcomeGrant:
				d.noteCapChanges(trace.ReasonReadjustGrant)
			case readjust.OutcomeEqualize:
				// Equalize may also move low-priority caps (the
				// EnforceFloor reclaim); all movement in this branch is
				// one decision and shares the reason.
				d.noteCapChanges(trace.ReasonEqualize)
			}
		}
		now = time.Now()
		stats.Timings.Readjust = now.Sub(mark)
		if d.tracer.On() {
			d.tracer.Record(d.steps, trace.SpanReadjust, trace.LaneDecide, -1, mark, stats.Timings.Readjust)
		}
	}
	stats.Restored = d.lastRestored

	// Pin non-fresh units back to their held caps. This runs after every
	// global stage (stateless, restore, readjust) so no path — not even a
	// restoration that resets all caps to the constant cap — can move a
	// cap its agent is still enforcing. The fresh units then absorb any
	// resulting excess in the budget fit below.
	if health != nil {
		traceOn := d.tracer.On()
		var pinStart time.Time
		if traceOn {
			pinStart = time.Now()
		}
		for u, h := range health {
			if h != HealthFresh {
				d.caps[u] = d.held[u]
			}
		}
		d.noteCapChanges(trace.ReasonHealthPin)
		if traceOn {
			d.tracer.Record(d.steps, trace.SpanHealthPin, trace.LaneDecide, -1, pinStart, time.Since(pinStart))
		}
	}

	// The budget fit, elided when no module moved any cap this round: the
	// caps are then bit-for-bit the vector the previous round's fit left,
	// which a second fit would leave alone, and the cached sum is exactly
	// what caps.Sum() would return. A unit the fit alone moved is tagged
	// clamp; one a stage moved keeps that stage's reason, the fit having
	// only carried its decision onto the grid or under the budget.
	if d.anyMove || health != nil || !d.sumValid || d.cachedSum > d.cfg.Budget.Total {
		stats.BudgetClamped = Fit(d.caps, d.held, health, d.cfg.Budget) > 0
		d.noteMoves(trace.ReasonClamp, false)
		d.cachedSum, d.sumValid = d.caps.Sum(), true
	}
	// This round's movers become the next round's revisit set.
	d.capMovedW, d.roundMovedW = d.roundMovedW, d.capMovedW
	stats.Total = time.Since(start)
	if d.tracer.On() {
		d.tracer.Record(d.steps, trace.SpanDecide, trace.LaneDecide, -1, start, stats.Total)
	}
	return d.caps, stats
}

// noteStatelessChanges tags units whose caps the stateless stage moved,
// classified by net direction: Algorithm 1's decrease loop can cut a unit
// and its increase loop re-raise it within one pass, and the net movement
// is what the operator asks about.
func (d *DPS) noteStatelessChanges() {
	any := false
	for u, c := range d.caps {
		if c != d.stageCaps[u] {
			if c < d.stageCaps[u] {
				d.reasons[u] = trace.ReasonMIMDCut
			} else {
				d.reasons[u] = trace.ReasonMIMDRaise
			}
			d.stageCaps[u] = c
			d.roundMovedW[u>>6] |= uint64(1) << uint(u&63)
			any = true
		}
	}
	if any {
		d.provDirty = true
		d.anyMove = true
	}
}

// noteCapChanges tags every unit whose cap moved since the previous
// stage baseline with reason, advances the baseline, and records the
// movers in the round's moved mask, which drives the next round's revisit
// set.
func (d *DPS) noteCapChanges(reason trace.Reason) { d.noteMoves(reason, true) }

// noteMoves is noteCapChanges, but with retag false a unit that already
// carries this round's reason keeps it.
func (d *DPS) noteMoves(reason trace.Reason, retag bool) {
	any := false
	for u, c := range d.caps {
		if c != d.stageCaps[u] {
			if retag || d.reasons[u] == trace.ReasonNone {
				d.reasons[u] = reason
			}
			d.stageCaps[u] = c
			d.roundMovedW[u>>6] |= uint64(1) << uint(u&63)
			any = true
		}
	}
	if any {
		d.provDirty = true
		d.anyMove = true
	}
}

// SetTotalBudget changes the cluster-wide power limit at runtime, keeping
// the per-unit hardware bounds. The constant cap (initial condition,
// restore target, and lower-bound floor) is re-derived. A hierarchical
// deployment uses this: a top-level coordinator reassigns group budgets
// and each group's local DPS adopts its new total between decisions.
// Existing caps above the new budget are pulled back proportionally on
// the next Decide by the budget fit. Setting the current total
// is a no-op: it changes no state, so a controller told its own budget
// and one never told stay bitwise identical.
func (d *DPS) SetTotalBudget(total power.Watts) error {
	if total == d.cfg.Budget.Total {
		return nil
	}
	b := d.cfg.Budget
	b.Total = total
	if err := b.Validate(d.cfg.Units); err != nil {
		return err
	}
	d.cfg.Budget = b
	d.constantCap = gridConstantCap(b, d.cfg.Units)
	// A new budget changes classification inputs (the idle-revert floor
	// tracks the constant cap) and the MIMD headroom, so every unit must be
	// revisited; the settle certificates themselves stay valid — they
	// describe filter and ring state only.
	d.setAllWords(d.capMovedW)
	return nil
}

// Reset returns the controller to its initial state (constant caps, empty
// history, unprimed filters, all priorities low).
func (d *DPS) Reset() {
	for u := 0; u < d.cfg.Units; u++ {
		d.caps[u] = d.constantCap
		d.filters.Unit(power.UnitID(u)).Reset()
		d.hist.Unit(power.UnitID(u)).Reset()
	}
	d.priorityM.Reset()
	d.lastRestored = false
	clear(d.reasons)
	for u := range d.stageCaps {
		d.stageCaps[u] = d.constantCap
	}
	d.provDirty = false
	d.steps = 0
	clear(d.dirtyW)
	clear(d.roundMovedW)
	d.resetSkipState()
	d.highCount = 0
}

// resetSkipState drops every settle certificate and schedules every unit
// for a revisit. lastStep pins to the current round — the elided-push
// accounting subtracts it from the round being decided and must never
// underflow. Extra visits of settled units are proven bitwise no-ops
// (DESIGN.md §13), so this is always safe.
func (d *DPS) resetSkipState() {
	clear(d.settledW)
	d.setAllWords(d.capMovedW)
	clear(d.lastVal)
	for u := range d.lastStep {
		d.lastStep[u] = d.steps
	}
	d.lastDT = 0
	d.sumValid = false
}
