package daemon

import (
	"bytes"
	"math/bits"
	"runtime"
	"sync"
	"testing"

	"dps/internal/power"
	"dps/internal/proto"
	"dps/internal/section"
	"dps/internal/snapshot"
)

// editInput rewrites a FrameDelta payload through edit: decode the round
// input, change it, re-encode (fresh CRC), so the standby parses the
// edited frame cleanly and only the replay can tell.
func editInput(t *testing.T, units int, payload []byte, edit func(*snapshot.RoundInput)) []byte {
	round, sections, err := proto.DeltaRound(payload)
	if err != nil {
		t.Error(err)
		return payload
	}
	w := section.Walk(sections)
	var in snapshot.RoundInput
	if !w.Next() {
		t.Errorf("delta frame holds no section (%v)", w.Stop)
		return payload
	}
	if err := snapshot.DecodeRoundInput(&in, w.Payload, units); err != nil {
		t.Error(err)
		return payload
	}
	edit(&in)
	out := make([]byte, 8)
	proto.PutDeltaRound(out, round)
	return snapshot.AppendRoundInput(out, &in)
}

// newReplayRun is the standby tests' run: four agents of five units on
// mixed demand, staleness clocks at 1 s/4 s, and a standby that has
// synced from the primary's image and followed one round.
func newReplayRun(t *testing.T) *serverRun {
	r := newServerRun(t, serverScript(4, 5, clocks1s)[0], clocks1s)
	r.step(opStandby|opMixed, allAgents, 64, 1)
	return r
}

// TestStandbyStatusFollowsBudget: /status on a following standby reports
// the budget the replay moves its controller to, without reading the
// controller. A poller calls Snapshot throughout while the primary moves
// its budget every fifth round (under -race, a read of the controller's
// budget would race Follow's SetTotalBudget), and after every followed
// round budget_w is the primary's.
func TestStandbyStatusFollowsBudget(t *testing.T) {
	r := newReplayRun(t)
	budget := r.primary.dps.Budget().Total

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			r.standby.Snapshot()
			runtime.Gosched()
		}
	}()
	defer func() {
		close(done)
		wg.Wait()
	}()
	for n := 1; n <= 30; n++ {
		if n%5 == 0 {
			if err := r.primary.dps.SetTotalBudget(budget * power.Watts(0.7+0.05*float64(n%4))); err != nil {
				t.Fatal(err)
			}
		}
		r.step(0, 0, 0, 1) // the standby follows it to the same image
		if got, want := r.standby.Snapshot().BudgetW, float64(r.primary.dps.Budget().Total); got != want {
			t.Fatalf("round %d: standby /status budget_w = %v, primary runs at %v", n, got, want)
		}
	}
}

// TestStandbyReplayNeedsEveryInput is the mutation check on the replayed
// lane, kept as a test: each field of the input frame is withheld in
// flight in turn (the frame re-encoded, so it parses), and each time the
// standby must either diverge or be caught holding different state.
func TestStandbyReplayNeedsEveryInput(t *testing.T) {
	for name, edit := range map[string]func(in *snapshot.RoundInput, initialBudget power.Watts){
		"pushed mask": func(in *snapshot.RoundInput, _ power.Watts) { clear(in.Pushed) },
		"budget":      func(in *snapshot.RoundInput, b power.Watts) { in.BudgetTotal = b },
		"dirty word":  func(in *snapshot.RoundInput, _ power.Watts) { in.Dirty[0] &^= 0xff },
		"health":      func(in *snapshot.RoundInput, _ power.Watts) { clear(in.Health) },
		"report ages": func(in *snapshot.RoundInput, _ power.Watts) { clear(in.ReportAgeMS) },
	} {
		t.Run(name, func(t *testing.T) {
			r := newReplayRun(t)
			budget := r.primary.dps.Budget().Total
			r.mu.Lock()
			r.rewrite = func(frame byte, payload []byte) []byte {
				if frame != proto.FrameDelta {
					return payload
				}
				return editInput(t, r.units, payload, func(in *snapshot.RoundInput) { edit(in, budget) })
			}
			r.mu.Unlock()
			for n := 1; n <= 40; n++ {
				switch n {
				case 10:
					r.events(opDrop, 1, 0)
				case 20:
					if err := r.primary.dps.SetTotalBudget(budget * 0.8); err != nil {
						t.Fatal(err)
					}
				}
				r.roundOnce(0, 0, false)
				if !r.follow() || !bytes.Equal(image(r.standby), image(r.primary)) {
					return // caught
				}
			}
			t.Fatalf("a standby that was never told the %s still matched for 40 rounds", name)
		})
	}
}

// TestStandbyDivergenceResyncs: one reading altered in flight, in a frame
// that still parses. The standby replays the round on the wrong reading,
// its caps digest does not match, and it must count the divergence, not
// take over, fetch a fresh image and follow again with no lag.
func TestStandbyDivergenceResyncs(t *testing.T) {
	r := newReplayRun(t)
	for n := 1; n <= 12; n++ {
		if n == 6 {
			r.mu.Lock()
			r.rewrite = func(_ byte, payload []byte) []byte {
				return editInput(t, r.units, payload, func(in *snapshot.RoundInput) {
					for wi, w := range in.Dirty { // the round's first changed reading
						if w != 0 {
							in.Readings[wi<<6|bits.TrailingZeros64(w)] = 1
							return
						}
					}
				})
			}
			r.mu.Unlock()
		}
		r.roundOnce(0, 0, false)
		if n == 6 {
			if r.follow() {
				t.Fatal("standby replayed a round on an altered reading and did not notice")
			}
			r.mu.Lock()
			r.rewrite = nil
			r.mu.Unlock()
			r.waitReplica(false)
			continue
		}
		waitUntil(t, "standby caught up", func() bool { return r.standby.Rounds() == r.primary.Rounds() })
	}
	m := &r.standby.metrics
	if m.divergence.Value() != 1 || m.failovers.Value() != 0 || m.standbyLag.Value() != 0 {
		t.Fatalf("divergence %d, failovers %d, lag %v; want 1, 0, 0",
			m.divergence.Value(), m.failovers.Value(), m.standbyLag.Value())
	}
	if !bytes.Equal(image(r.standby), image(r.primary)) {
		t.Fatal("standby state differs from the primary's after the resync")
	}
}
