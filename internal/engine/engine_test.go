package engine_test

import (
	"bytes"
	"math"
	"math/bits"
	"slices"
	"testing"

	"dps/internal/baseline"
	"dps/internal/core"
	"dps/internal/engine"
	"dps/internal/power"
	"dps/internal/section"
	"dps/internal/snapshot"
	"dps/internal/stateless"
	"dps/internal/telemetry"
)

// Script layout: byte 0 sizes the fleet (8–128 units, in agents of 8),
// byte 1 configures it, then every 5 bytes are one script round: op,
// group, value, arg, rep.
//
//	config&3     the agents' report band: 0, 0.5, 2.5 or 25 W
//	config&4     DisableKalman, on every DPS lane
//
//	op&0x01      every agent reports (a dense round); otherwise only
//	             agent `group` does
//	(op>>1)&3    agent arg&15 turns fresh (1), stale (2) or dead (3)
//	op&0x08      the budget moves to value's share of [10, 210] W a unit,
//	             in a round where every unit is fresh
//	op&0x10      agent arg>>4's push fails; a fresh agent turns stale from
//	             the next round on, as dpsd marks an agent it cannot reach
//	op&0x20      cut: the restored lane's controller is replaced by one
//	             restored from its image
//	op&0x40      the round lasts half an interval
//	op&0x80      units demand the mixed trace's classes (demand) with
//	             value/32 W of wobble; otherwise value·0.75 W plus u%7 W
//	rep          the round runs rep+1 times; the budget move and the cut
//	             happen on the first
//
// At most maxSteps script rounds are read and maxRounds rounds run. A
// unit draws min(demand, the cap its agent enforces) and reports like
// the batch agent: only a draw more than the band away from its last
// report is sent, and it marks the unit in the ingest mask, so a set bit
// means the reading changed. A non-fresh agent reports nothing: in dpsd
// an accepted report makes its units fresh.
//
// Two rules keep the script inside the contract every round is checked
// against. Budget moves land only in all-fresh rounds: a pinned cap was
// delivered under the budget of its round, and a later cut can leave
// nothing to rescale. And what nodes enforce is held to the budget in
// every round but one where a fresh agent's push failed: its nodes keep
// the caps of the round before while the others take the new ones, a mix
// that can sum past any budget until the next round pins that agent —
// and past it for good when the units then pinned, with the fresh ones at
// UnitMin, exceed it (an infeasible round, unchecked).
const (
	agentUnits = 8
	maxSteps   = 64
	maxRounds  = 512
	// neverRefresh is a refresh period longer than any script: every skip
	// rests on its settle certificate alone.
	neverRefresh = 100000
)

// Script ops, as the layout above lists them.
const (
	opDense  = 0x01
	opFresh  = 1 << 1
	opStale  = 2 << 1
	opDead   = 3 << 1
	opBudget = 0x08
	opNoPush = 0x10
	opCut    = 0x20
	opHalf   = 0x40
	opMixed  = 0x80
)

var (
	fuzzBudget = power.Budget{UnitMax: 165, UnitMin: 10}
	bands      = [4]float64{0, 0.5, 2.5, 25}
)

// step is one script round: op, group, value, arg, rep.
type step [5]byte

// script builds fuzz input: the fleet and config bytes, then the rounds.
func script(units, config byte, steps ...step) []byte {
	b := []byte{units, config}
	for _, s := range steps {
		b = append(b, s[:]...)
	}
	return b
}

// demand is unit u's demand in round r under opMixed: the classes of the
// mixed trace — a flipper between 150 and 20 W every three rounds, a
// triangular ramp over [30, 160] W, an idler at 8 W bursting to 140 W for
// 10 rounds in 50, a steady 160 W over any cap, and a moderate 70 W —
// plus a deterministic wobble in [−wobble, wobble) W.
func demand(u, r int, wobble float64) float64 {
	var d float64
	switch u % 5 {
	case 0:
		d = 20
		if (r/3+u)%2 == 0 {
			d = 150
		}
	case 1:
		phase := float64((r + 7*u) % 80)
		d = 30 + 3.25*min(phase, 80-phase)
	case 2:
		d = 8
		if (r+u)%50 < 10 {
			d = 140
		}
	case 3:
		d = 160
	default:
		d = 70
	}
	h := (uint64(u)<<32 | uint64(r)) + 0x9e3779b97f4a7c15 // splitmix64
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	h ^= h >> 31
	return d + wobble*(float64(h>>11)/(1<<52)-1)
}

// seed is a generated script for a scenario of a hand-written
// equivalence suite, with what that suite demands the scenario exercise.
type seed struct {
	name string
	data []byte
	// The rounds must have skipped units on the refresh-64 lane, fired
	// Algorithm 3, flipped priorities, degraded, cut, and cut with every
	// ring holding two durations.
	skips, restores, flips, degraded, cuts, mixedRings bool
	// pinned, when nonzero, is a unit whose cap must hold through every
	// round it is not fresh.
	pinned int
}

// seeds are the corpus FuzzRoundEngine starts from and TestRoundEngineSeeds
// holds to their claims.
func seeds() []seed {
	var healthy, flap, stepped []step
	for r := byte(0); r < 24; r++ {
		healthy = append(healthy, step{r & 1, r, 40 + 7*r, 0, 0})
	}
	// Agents 0 and 1 run hot; agent 2 idles, goes stale — the health-blind
	// policy hands its watts to the others, so delivery must pin and
	// rescale — then dead with its pushes failing, then rejoins.
	for r := byte(0); r < 24; r++ {
		op, group, value, arg := byte(0), r%2, byte(200), byte(2)
		switch {
		case r == 0:
			op = opDense
		case r == 3:
			group, value = 2, 40
		case r == 4:
			op = opStale
		case r == 8:
			op = opDead | opNoPush
			arg |= 2 << 4
		case r > 8 && r < 14:
			op = opNoPush
			arg = 2 << 4
		case r == 14:
			op = opFresh
		}
		flap = append(flap, step{op, group, value, arg, 0})
	}
	// Dense rounds, a budget cut to a fifth of the range, then back up.
	for r := byte(0); r < 24; r++ {
		switch r {
		case 8:
			stepped = append(stepped, step{opDense | opBudget, 0, 50, 0, 0})
		case 16:
			stepped = append(stepped, step{opDense | opBudget, 0, 200, 0, 0})
		default:
			stepped = append(stepped, step{opDense, r, 150 - 3*r, 0, 0})
		}
	}
	out := []seed{
		{name: "healthy", data: script(24, 0, healthy...)},
		{name: "flap", data: script(5, 0, flap...), degraded: true},
		{name: "step", data: script(112, 0, stepped...)},
	}

	// The mixed trace at 96 units under a tight budget (≈ 55 W a unit
	// against demands up to 160 W, so Algorithm 4 equalizes as well as
	// grants), a budget cut after 150 rounds, a cut after 250, Algorithm
	// 3's quiet window over 301–312 and a budget raise at 401.
	for i, band := range []string{"0", "0.5", "2.5", "25"} {
		out = append(out, seed{
			name: "mixed/band=" + band,
			data: script(88, byte(i),
				step{opDense | opMixed | opBudget, 0, 57, 0, 149},
				step{opDense | opMixed | opBudget, 0, 48, 0, 99},
				step{opDense | opMixed | opCut, 0, 64, 0, 49},
				step{opDense, 0, 4, 0, 11},
				step{opDense | opMixed, 0, 64, 0, 87},
				step{opDense | opMixed | opBudget, 0, 64, 0, 111}),
			// The wobble moves every unit past a band under 2.5 W.
			skips: i >= 2, flips: true, cuts: true,
			// A 25 W band keeps the ramps' last reports above the
			// quiet window's threshold.
			restores: band != "25",
		})
	}
	// The settle-round regression: flippers set the sticky high-frequency
	// flag, take a last outlier, then everything goes flat. With
	// DisableKalman raw readings feed the rings, so the sample evicted on
	// the round a unit settles differs from the flat value: the ring's
	// statistics change on exactly the round the unit leaves the work mask.
	for _, band := range []struct {
		name   string
		config byte
	}{{"0", 0}, {"2.5", 2}, {"25", 3}} {
		out = append(out, seed{
			name: "settle/band=" + band.name,
			data: script(0, band.config|4,
				step{opDense | opMixed, 0, 0, 0, 59},
				step{opDense, 0, 200, 0, 0},
				step{opDense, 0, 107, 0, 239}),
			skips: true, flips: true,
		})
	}
	return append(out,
		// A unit that dies while settled (unit 9, a moderate 70 W), its
		// pushes failing, while another agent flaps stale across a cut;
		// the dead agent revives with a jumped reading in a round that is
		// cut too, so only MarkChanged can tell its units changed.
		seed{
			name: "degraded",
			data: script(56, 1,
				step{opDense | opMixed, 0, 0, 0, 119},
				step{opDense | opMixed | opDead | opNoPush, 0, 0, 1<<4 | 1, 29},
				step{opDense | opMixed | opStale | opNoPush | opCut, 0, 0, 1<<4 | 2, 19},
				step{opDense | opMixed | opFresh | opNoPush, 0, 0, 1<<4 | 2, 29},
				step{opFresh | opCut, 1, 200, 1, 0},
				step{opDense | opMixed, 0, 0, 0, 99}),
			skips: true, degraded: true, cuts: true, pinned: 9,
		},
		// Budget moves on both sides of a cut, taken in a round where the
		// readings of an agent that has held still long enough to settle
		// (past a ring's drift-wash, 256 pushes) jump.
		seed{
			name: "budget-cut",
			data: script(40, 2,
				step{opDense | opMixed | opBudget, 0, 89, 0, 99},
				step{opDense | opMixed | opBudget, 0, 64, 0, 59},
				step{opDense, 0, 40, 0, 139},
				step{opDense, 0, 40, 0, 139},
				step{opCut, 0, 60, 0, 0},
				step{opDense | opMixed | opBudget, 0, 110, 0, 70}),
			skips: true, flips: true, cuts: true,
		},
		// Half-interval rounds just before a cut: every ring holds short
		// slots between slots of the usual length, so the image stores
		// them one by one.
		seed{
			name: "short-interval",
			data: script(56, 1,
				step{opDense | opMixed, 0, 16, 0, 104},
				step{opDense | opMixed | opHalf, 0, 16, 0, 3},
				step{opDense | opMixed, 0, 16, 0, 2},
				step{opDense | opMixed | opCut, 0, 16, 0, 49}),
			flips: true, cuts: true, mixedRings: true,
		},
		// A fresh agent's push fails in a dense round: its units pin at
		// what its nodes still enforce from the next round until it rejoins.
		seed{
			name: "push-fail",
			data: script(16, 0,
				step{opDense, 0, 150, 0, 9},
				step{opDense | opNoPush, 0, 60, 1 << 4, 0},
				step{opDense, 0, 200, 0, 9},
				step{opDense | opFresh, 0, 200, 1, 9}),
			degraded: true,
		},
	)
}

// FuzzRoundEngine is the differential harness for every way a round can
// be decided. It drives one script through the round engine the way
// dpsd, its standby and the simulator do — Decide (or Follow),
// Round.Fill, Commit with a pushed mask — on these lanes:
//
//   - the reference: SparseRefreshEvery 1, which skips nothing;
//   - skipping controllers at refresh 7, 64 and never, and a second
//     refresh-64 one deciding on a nil mask (core's compare fallback);
//   - restored: refresh 64, replaced at every cut by a fresh controller
//     restored in dpsd's order (ExportState, Encode, Verify,
//     CheckFingerprint, BindState, DecodeVerified, RestoreState) and
//     deciding the cut round on MarkChanged's mask alone, the engine's
//     Prev and Enforced carried over;
//   - replayed: a refresh-64 follower that sees each round only as the
//     round-input bytes a standby receives and runs Engine.Follow;
//   - a health-blind SLURM engine, whose non-fresh units only delivery pins.
//
// Every round: every DPS lane delivers the reference's caps bitwise, with
// its round stats but for timings and skipped units (decision outcomes
// and dirty counts), a HighPriority that recounts Priorities(), and the
// same Prev and Enforced after Commit; the reference skips no unit;
// every lane's delivered sum, and but in a mixed round the sum its nodes
// enforce, is within its budget in whole deciwatts in every feasible
// round, and every cap within [UnitMin, UnitMax]; the filled record counts
// no pin and no provenance violation; and the engine's Enforced is what
// the nodes hold: the delivered cap where the push landed, the cap before
// elsewhere. Lanes that share a refresh period and a dirty-set sequence
// must also export byte-equal images: the replayed and nil-mask lanes
// every round, the restored lane after every cut and at the end.
func FuzzRoundEngine(f *testing.F) {
	for _, s := range seeds() {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runScript(t, data, 0) })
}

// TestRoundEngineSeeds runs each named seed and demands it exercise what
// its scenario is for, so the corpus cannot go vacuous.
func TestRoundEngineSeeds(t *testing.T) {
	for _, s := range seeds() {
		t.Run(s.name, func(t *testing.T) {
			tl := runScript(t, s.data, s.pinned)
			for _, c := range []struct {
				want bool
				got  int
				what string
			}{
				{s.skips, tl.skipped, "skipped unit-rounds"},
				{s.restores, tl.restores, "Algorithm 3 restores"},
				{s.flips, tl.flips, "priority flips"},
				{s.degraded, tl.degraded, "degraded rounds"},
				{s.cuts, tl.cuts, "cuts"},
				{s.mixedRings, tl.mixedRingCuts, "cuts with every ring holding two durations"},
			} {
				if c.want && c.got == 0 {
					t.Errorf("%d rounds: no %s; the seed is vacuous", tl.rounds, c.what)
				}
			}
			if w := tl.pinnedCaps; s.pinned != 0 && (len(w) == 0 || slices.Min(w) != slices.Max(w)) {
				t.Fatalf("unit %d's caps going into and through its outage: %v", s.pinned, w)
			}
		})
	}
}

// tally is what a script exercised.
type tally struct {
	rounds, cuts, mixedRingCuts        int
	restores, flips, degraded, skipped int
	// The pinned unit's caps, before and after each round it was not fresh.
	pinnedCaps []power.Watts
}

// lane is one engine fed the script.
type lane struct {
	name string
	eng  *engine.Engine
	dps  *core.DPS // nil on the SLURM lane
	cfg  core.Config

	noMask, restored, replayed bool

	// The replayed lane's own reading table, dirty mask and health, which
	// only round inputs write.
	readings power.Vector
	dirty    *core.DirtyMask
	health   []core.UnitHealth
	in       snapshot.RoundInput

	d     telemetry.Decision
	stats core.RoundStats
	rec   telemetry.Round
	// before is what its nodes enforced going into the round.
	before power.Vector
	state  snapshot.State
	img    []byte
}

func newLane(t *testing.T, name string, cfg core.Config, refresh int) *lane {
	cfg.SparseRefreshEvery = refresh
	d, err := core.NewDPS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &lane{name: name, eng: engine.New(d), dps: d, cfg: cfg}
}

// image exports and encodes the lane's controller state.
func (l *lane) image() []byte {
	l.dps.ExportState(&l.state)
	l.img = snapshot.Encode(l.img, &l.state)
	return l.img
}

// cut replaces the lane's controller with a fresh one restored from its
// image, in dpsd's order: verify the image whole, check its fingerprint,
// then decode it straight into the fresh controller's columns.
func (l *lane) cut(t *testing.T) {
	img := l.image()
	fresh, err := core.NewDPS(l.cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := snapshot.Verify(img)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := fresh.CheckFingerprint(fp); err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	var st snapshot.State
	fresh.BindState(&st)
	snapshot.DecodeVerified(&st, img)
	if err := fresh.RestoreState(&st); err != nil {
		t.Fatalf("restore: %v", err)
	}
	eng := engine.New(fresh)
	copy(eng.Prev, l.eng.Prev)
	copy(eng.Enforced, l.eng.Enforced)
	l.eng, l.dps = eng, fresh
}

// follow runs the round src just decided the way dpsd's standby does:
// the round goes through the bytes of a round-input section, the
// readings land under its dirty bits, and Engine.Follow decides and
// checks the digest.
func (l *lane) follow(t *testing.T, src *lane, snap core.Snapshot, pushed []uint64) {
	units := len(snap.Power)
	send := snapshot.RoundInput{
		Interval: snap.Interval, BudgetTotal: src.d.Budget, Digest: src.eng.Digest(src.d.Delivered),
		Dirty: snap.Dirty.Words(), Readings: snap.Power, Pushed: pushed,
		HasHealth: true, Health: make([]uint8, units), ReportAgeMS: make([]uint32, units),
	}
	for u, h := range snap.Health {
		send.Health[u] = uint8(h)
	}
	w := section.Walk(snapshot.AppendRoundInput(nil, &send))
	if !w.Next() || w.ID != snapshot.SecRoundInput {
		t.Fatalf("round input does not walk: %v", w.Stop)
	}
	if err := snapshot.DecodeRoundInput(&l.in, w.Payload, units); err != nil {
		t.Fatal(err)
	}
	for wi, word := range l.in.Dirty {
		for ; word != 0; word &= word - 1 {
			u := wi<<6 | bits.TrailingZeros64(word)
			l.readings[u] = l.in.Readings[u]
		}
	}
	l.dirty.SetWords(l.in.Dirty)
	for u, h := range l.in.Health {
		l.health[u] = core.UnitHealth(h)
	}
	var err error
	l.d, l.stats, err = l.eng.Follow(core.Snapshot{Power: l.readings, Interval: l.in.Interval, Health: l.health, Dirty: l.dirty}, l.in.BudgetTotal, l.in.Digest)
	if err != nil {
		t.Fatalf("replayed: %v", err)
	}
}

// outcome is a round's stats less what lanes may spend differently: the
// stage timings and the units skipped.
func outcome(s core.RoundStats) core.RoundStats {
	s.Timings, s.Total, s.SkippedUnits = core.StageTimings{}, 0, 0
	return s
}

// runScript runs data through every lane, tallying what it exercised
// and, when pinned is nonzero, that unit's caps around its outages.
func runScript(t *testing.T, data []byte, pinned int) tally {
	var tl tally
	if len(data) < 2 {
		return tl
	}
	units := agentUnits + int(data[0])%121
	agents := (units + agentUnits - 1) / agentUnits
	band := bands[data[1]&3]
	budget := fuzzBudget
	budget.Total = power.Watts(units) * 110
	cfg := core.DefaultConfig(units, budget)
	cfg.DisableKalman = data[1]&4 != 0

	ref, r64 := newLane(t, "refresh 1", cfg, 1), newLane(t, "refresh 64", cfg, 64)
	noMask, restored := newLane(t, "nil mask", cfg, 64), newLane(t, "restored", cfg, 64)
	replayed := newLane(t, "replayed", cfg, 64)
	noMask.noMask, restored.restored, replayed.replayed = true, true, true
	replayed.readings, replayed.dirty = make(power.Vector, units), core.NewDirtyMask(units)
	replayed.health = make([]core.UnitHealth, units)
	// replayed follows r64, so it comes after it.
	dpsLanes := []*lane{ref, newLane(t, "refresh 7", cfg, 7), r64, newLane(t, "refresh never", cfg, neverRefresh), noMask, restored, replayed}
	slurm, err := baseline.NewSLURM(units, budget, stateless.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	lanes := append(slices.Clip(dpsLanes), &lane{name: "SLURM", eng: engine.New(slurm)})
	for _, l := range lanes {
		l.before = make(power.Vector, units)
	}

	readings := make(power.Vector, units)
	dirty, cutMask := core.NewDirtyMask(units), core.NewDirtyMask(units)
	health := make([]core.UnitHealth, units)
	pushed := make([]uint64, (units+63)/64)
	agentRange := func(a int) (int, int) { return a * agentUnits, min((a+1)*agentUnits, units) }
	sameImage := func(round int, l *lane, want []byte) {
		if !bytes.Equal(l.image(), want) {
			t.Fatalf("round %d: %s lane's state image differs from refresh 64's", round, l.name)
		}
	}

	round := 0
	for b, steps := data[2:], 0; len(b) >= 5 && steps < maxSteps; b, steps = b[5:], steps+1 {
		op, group, value, arg, rep := b[0], int(b[1])%agents, b[2], b[3], int(b[4])
		for k := 0; k <= rep && round < maxRounds; k++ {
			round++
			if h := (op >> 1) & 3; h != 0 {
				lo, hi := agentRange(int(arg&15) % agents)
				for u := lo; u < hi; u++ {
					health[u] = core.UnitHealth(h - 1)
				}
			}
			lo, hi := agentRange(group)
			if op&opDense != 0 {
				lo, hi = 0, units
			}
			for u := lo; u < hi; u++ {
				if health[u] != core.HealthFresh {
					continue
				}
				want := float64(value)*0.75 + float64(u%7)
				if op&opMixed != 0 {
					want = demand(u, round, float64(value)/32)
				}
				if drawn := min(power.Watts(want), ref.eng.Enforced[u]); math.Abs(float64(drawn-readings[u])) > band {
					readings[u] = drawn
					dirty.Mark(u)
				}
			}
			allFresh := !slices.ContainsFunc(health, func(h core.UnitHealth) bool { return h != core.HealthFresh })
			if total := power.Watts(units) * (10 + 200*power.Watts(value)/255); op&opBudget != 0 && k == 0 && allFresh {
				budget.Total = total
				for _, l := range dpsLanes {
					if !l.replayed { // it learns the budget from the round input
						if err := l.dps.SetTotalBudget(total); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			failLo, failHi := agentRange(int(arg>>4) % agents)
			mixed := op&opNoPush != 0 && health[failLo] == core.HealthFresh
			for i := range pushed {
				pushed[i] = core.WordMaskForRange(0, units, i<<6)
				if op&opNoPush != 0 {
					pushed[i] &^= core.WordMaskForRange(failLo, failHi, i<<6)
				}
			}
			// The cut falls after the round's readings land and before it
			// decides: dpsd's image holds the ingest front buffer, and the
			// restored daemon's first mask is MarkChanged's alone.
			cut := op&opCut != 0 && k == 0
			if cut {
				restored.cut(t)
				cutMask.Reset()
				restored.dps.MarkChanged(cutMask, readings)
				tl.cuts++
				if !slices.ContainsFunc(restored.state.Rings, func(r snapshot.RingState) bool { return slices.Min(r.Durations) == slices.Max(r.Durations) }) {
					tl.mixedRingCuts++
				}
			}
			interval := power.Seconds(1)
			if op&opHalf != 0 {
				interval = 0.5
			}

			snap := core.Snapshot{Power: readings, Interval: interval, Health: health, Dirty: dirty}
			for _, l := range lanes {
				// Once a mix has been enforced, the units pinned at it and
				// the rest cut to UnitMin may not fit: an infeasible round.
				var floor int64
				for u, h := range health {
					if h == core.HealthFresh {
						floor += power.Deciwatts(fuzzBudget.UnitMin)
					} else {
						floor += power.Deciwatts(l.eng.Enforced[u])
					}
				}
				feasible := floor <= power.FloorDeciwatts(budget.Total)
				s := snap
				switch {
				case l.noMask:
					s.Dirty = nil
				case l.restored && cut:
					s.Dirty = cutMask
				}
				if l.replayed {
					l.follow(t, r64, s, pushed)
				} else {
					l.d, l.stats = l.eng.Decide(s)
				}
				l.d.Pushed = pushed
				if l.replayed {
					l.d.Pushed = l.in.Pushed
				}
				l.rec.Reset()
				l.rec.Fill(l.d)
				b := fuzzBudget
				b.Total = l.d.Budget
				limit := power.FloorDeciwatts(b.Total)
				if sum := l.d.Delivered.SumDeciwatts(); feasible && sum > limit {
					t.Fatalf("round %d %s: delivered %d dW over a %d dW budget", round, l.name, sum, limit)
				}
				if sum := l.rec.EnforcedDW; feasible && !mixed && sum > limit {
					t.Fatalf("round %d %s: nodes enforce %d dW over a %d dW budget", round, l.name, sum, limit)
				}
				if lo, hi := slices.Min(l.d.Delivered), slices.Max(l.d.Delivered); lo < b.UnitMin || hi > b.UnitMax {
					t.Fatalf("round %d %s: caps span [%v, %v], outside [%v, %v]", round, l.name, lo, hi, b.UnitMin, b.UnitMax)
				}
				if l.rec.PinViolations != 0 || l.rec.ProvViolations != 0 {
					t.Fatalf("round %d %s: %d pin and %d provenance violations", round, l.name, l.rec.PinViolations, l.rec.ProvViolations)
				}
			}
			if ref.stats.SkippedUnits != 0 {
				t.Fatalf("round %d: the reference skipped %d units", round, ref.stats.SkippedUnits)
			}
			if pinned != 0 && pinned < units && health[pinned] != core.HealthFresh {
				tl.pinnedCaps = append(tl.pinnedCaps, ref.d.Prev[pinned], ref.d.Delivered[pinned])
			}
			for _, l := range dpsLanes {
				for u, c := range l.d.Delivered {
					if math.Float64bits(float64(c)) != math.Float64bits(float64(ref.d.Delivered[u])) {
						t.Fatalf("round %d unit %d: %s delivered %v, refresh 1 %v", round, u, l.name, c, ref.d.Delivered[u])
					}
				}
				if got, want := outcome(l.stats), outcome(ref.stats); got != want {
					t.Fatalf("round %d: %s decided %+v, refresh 1 %+v", round, l.name, got, want)
				}
				high := 0
				for _, p := range l.d.Prio {
					if p {
						high++
					}
				}
				if high != l.stats.HighPriority {
					t.Fatalf("round %d %s: HighPriority %d, recount %d", round, l.name, l.stats.HighPriority, high)
				}
			}
			for _, l := range lanes {
				copy(l.before, l.eng.Enforced)
				l.eng.Commit(l.d.Delivered, l.d.Pushed)
				for u, c := range l.eng.Enforced {
					want := l.before[u]
					if u < failLo || u >= failHi || op&opNoPush == 0 {
						want = l.d.Delivered[u]
					}
					if c != want {
						t.Fatalf("round %d %s unit %d: the engine holds %v enforced, its node %v", round, l.name, u, c, want)
					}
				}
				if l.dps != nil && !slices.Equal(l.eng.Prev, ref.eng.Prev) {
					t.Fatalf("round %d: %s lane's Prev and Enforced differ from refresh 1's", round, l.name)
				}
			}
			img := r64.image()
			sameImage(round, replayed, img)
			sameImage(round, noMask, img)
			if cut {
				sameImage(round, restored, img)
			}

			tl.skipped += r64.stats.SkippedUnits
			tl.flips += ref.stats.PriorityFlips
			if ref.stats.Restored {
				tl.restores++
			}
			if ref.stats.StaleUnits+ref.stats.DeadUnits > 0 {
				tl.degraded++
			}
			if mixed { // dpsd no longer answers for that agent's nodes
				for u := failLo; u < failHi; u++ {
					health[u] = core.HealthStale
				}
			}
			dirty.Reset()
		}
	}
	tl.rounds = round
	if round > 0 {
		sameImage(round, restored, r64.image())
	}
	return tl
}
