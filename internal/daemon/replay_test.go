package daemon

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"dps/internal/power"
	"dps/internal/proto"
	"dps/internal/rapl"
	"dps/internal/section"
	"dps/internal/snapshot"
)

// frameTap sits on the primary's end of a replication link and hands
// every state frame to rewrite before it goes out, so a test can damage
// or edit the stream in flight. replicaConn.writeFrame makes exactly two
// writes per frame, header then payload; anything else (the handshake
// ack) passes through.
type frameTap struct {
	net.Conn
	rewrite func(frame byte, payload []byte) []byte
	hdr     []byte
}

func (c *frameTap) Write(p []byte) (int, error) {
	if c.hdr == nil {
		if len(p) == proto.StateFrameHeaderSize && (p[0] == proto.FrameSnapshot || p[0] == proto.FrameDelta) {
			c.hdr = append([]byte(nil), p...)
			return len(p), nil
		}
		return c.Conn.Write(p)
	}
	frame := c.hdr[0]
	c.hdr = nil
	payload := c.rewrite(frame, append([]byte(nil), p...))
	hdr, err := proto.StateFrameHeader(frame, len(payload))
	if err != nil {
		return 0, err
	}
	if _, err := c.Conn.Write(append(hdr[:], payload...)); err != nil {
		return 0, err
	}
	return len(p), nil
}

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

// replayAgent is one real batch/delta agent on scripted devices.
type replayAgent struct {
	agent *Agent
	devs  []*scriptDevice
	conn  net.Conn
	first int
	// capsDone closes when the session's cap-applying goroutine has
	// exited: kill joins it, so a rejoined agent's SetCap calls are
	// ordered after the last one of the session before.
	capsDone chan struct{}
}

// replayRig is a primary serving real agents and a warm standby following
// it through a frameTap, both on one manual clock.
type replayRig struct {
	t                *testing.T
	clk              *testClock
	primary, standby *Server
	agents           []*replayAgent
	frames           uint64 // upstream frames the primary must have ingested

	mu      sync.Mutex
	rewrite func(frame byte, payload []byte) []byte // nil: pass through
}

const (
	replayAgents = 4
	replayPerAg  = 5
	replayUnits  = replayAgents * replayPerAg
)

func newReplayRig(t *testing.T) *replayRig {
	r := &replayRig{t: t, clk: newTestClock()}
	r.primary = newHAServer(t, replayUnits, r.clk, nil)
	r.standby = newHAServer(t, replayUnits, r.clk, func(sc *ServerConfig) { sc.StandbyOf = "primary-in-process" })
	r.standby.dial = func(string, string) (net.Conn, error) {
		client, server := net.Pipe()
		go r.primary.Handle(&frameTap{Conn: server, rewrite: func(frame byte, payload []byte) []byte {
			r.mu.Lock()
			defer r.mu.Unlock()
			if r.rewrite == nil {
				return payload
			}
			return r.rewrite(frame, payload)
		}})
		return client, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- r.standby.RunStandby(ctx, func() (net.Listener, error) {
			return nil, errors.New("the replay rig never fails over")
		})
	}()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("RunStandby: %v", err)
		}
		for _, a := range r.agents {
			a.conn.Close()
		}
		r.primary.Close()
		r.standby.Close()
	})
	r.waitReplica(false)
	for i := 0; i < replayAgents; i++ {
		a := &replayAgent{first: i * replayPerAg}
		for j := 0; j < replayPerAg; j++ {
			a.devs = append(a.devs, &scriptDevice{})
		}
		r.agents = append(r.agents, a)
		r.connect(a)
	}
	return r
}

// waitReplica waits until the primary holds exactly one replica whose
// synced flag is as given.
func (r *replayRig) waitReplica(synced bool) {
	r.t.Helper()
	waitUntil(r.t, "standby attached to primary", func() bool {
		r.primary.snapMu.Lock()
		defer r.primary.snapMu.Unlock()
		for rc := range r.primary.replicas {
			return len(r.primary.replicas) == 1 && rc.synced == synced
		}
		return false
	})
}

// connect (re)handshakes an agent with the primary on a fresh session.
func (r *replayRig) connect(a *replayAgent) {
	r.t.Helper()
	devices := make([]rapl.Device, len(a.devs))
	for i, d := range a.devs {
		devices[i] = d
	}
	agent, err := NewAgent(AgentConfig{
		FirstUnit: power.UnitID(a.first),
		Devices:   devices,
		Interval:  time.Second,
		Batch:     true,
	})
	if err != nil {
		r.t.Fatal(err)
	}
	client, server := net.Pipe()
	go r.primary.Handle(server)
	if err := agent.Handshake(client); err != nil {
		r.t.Fatal(err)
	}
	capsDone := make(chan struct{})
	go func() {
		defer close(capsDone)
		for agent.ReceiveCaps() == nil {
		}
	}()
	a.agent, a.conn, a.capsDone = agent, client, capsDone
}

func (r *replayRig) kill(a *replayAgent) {
	r.t.Helper()
	want := r.primary.Connected() - 1
	a.conn.Close()
	<-a.capsDone
	a.agent = nil
	waitUntil(r.t, "killed agent unregistered", func() bool { return r.primary.Connected() == want })
}

// replayDemand is mixedTrace's shape (internal/core/trace_test.go) for a
// daemon-sized fleet: flippers, ramps, bursty idlers, at-cap draws and
// noisy units, a global quiet window that fires Algorithm 3 — and one
// agent whose units draw a constant, so its reports are all suppressed
// and it sends heartbeats.
func replayDemand(rng *rand.Rand, round, u int) float64 {
	if u >= replayUnits-replayPerAg {
		return 50
	}
	var d float64
	switch u % 5 {
	case 0:
		if (round/3+u)%2 == 0 {
			d = 150
		} else {
			d = 20
		}
	case 1:
		if phase := (round + 7*u) % 80; phase < 40 {
			d = 30 + float64(phase)*3.25
		} else {
			d = 160 - float64(phase-40)*3.25
		}
	case 2:
		if (round+u)%50 < 10 {
			d = 140
		} else {
			d = 8
		}
	case 3:
		d = 160
	default:
		d = 70
	}
	d += rng.NormFloat64() * 2
	if round >= 300 && round < 312 {
		d = 4 + rng.Float64()
	}
	return max(d, 0)
}

// image exports and encodes a server's state between rounds.
func image(s *Server) []byte {
	s.roundMu.Lock()
	defer s.roundMu.Unlock()
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return append([]byte(nil), s.encodeImage(s.rounds.Load())...)
}

// round runs one primary round — clock tick, one report per live agent
// drawn closed-loop against caps, DecideOnce — and returns the delivered
// caps.
func (r *replayRig) round(rng *rand.Rand, n int, caps power.Vector) power.Vector {
	r.t.Helper()
	r.clk.Advance(time.Second)
	for _, a := range r.agents {
		for i, d := range a.devs {
			d.advance(min(power.Watts(replayDemand(rng, n, a.first+i)), caps[a.first+i]))
		}
		if a.agent == nil {
			continue
		}
		if err := a.agent.ReportOnce(1); err != nil {
			r.t.Fatalf("round %d: %v", n, err)
		}
		r.frames++
	}
	m := &r.primary.metrics
	waitUntil(r.t, "reports ingested", func() bool {
		return m.ingestBatches.Value()+m.ingestHeartbeats.Value() == r.frames
	})
	out, err := r.primary.DecideOnce(1)
	if err != nil {
		r.t.Fatalf("round %d: %v", n, err)
	}
	return out.Clone()
}

// follow waits for the standby to have replayed the primary's last round
// and reports whether it did; false means it diverged instead.
func (r *replayRig) follow() bool {
	r.t.Helper()
	diverged := false
	waitUntil(r.t, "standby caught up or diverged", func() bool {
		diverged = r.standby.metrics.divergence.Value() > 0
		return diverged || r.standby.Rounds() == r.primary.Rounds()
	})
	return !diverged
}

// TestStandbyReplayMatchesPrimary is the replication plane's exactness
// test. A standby that is only ever told a round's inputs must hold, after
// every round, exactly the state the primary holds: the two servers'
// exported images — controller, round caches, health, report ages,
// readings — are compared byte for byte, at the same instant of the one
// manual clock both run on (which is what makes the save stamp and the
// report ages comparable to the millisecond). The script covers an agent
// killed and rejoined (fresh → stale → dead → fresh), two budget changes,
// an agent that only ever heartbeats, Algorithm 3's quiet window, and a
// frame destroyed in flight halfway through, after which the standby must
// resync from a full image and match again. It runs on images as this
// tree writes them, PRNG register section included.
func TestStandbyReplayMatchesPrimary(t *testing.T) {
	t.Run("register", standbyReplayMatchesPrimary)
}

func standbyReplayMatchesPrimary(t *testing.T) {
	const (
		rounds      = 320
		killAt      = 40
		rejoinAt    = 52
		budgetDown  = 150
		corruptAt   = 170
		budgetUp    = 220
		secondKill  = 250 // still dead when the run ends
		wantResyncs = 1
	)
	r := newReplayRig(t)
	rng := rand.New(rand.NewSource(3))
	caps := r.primary.cfg.Manager.Caps().Clone()
	budget := r.primary.dps.Budget().Total
	for n := 1; n <= rounds; n++ {
		switch n {
		case killAt, secondKill:
			r.kill(r.agents[1])
		case rejoinAt:
			r.connect(r.agents[1])
		case budgetDown:
			if err := r.primary.dps.SetTotalBudget(budget * 0.8); err != nil {
				t.Fatal(err)
			}
		case budgetUp:
			if err := r.primary.dps.SetTotalBudget(budget); err != nil {
				t.Fatal(err)
			}
		case corruptAt:
			r.mu.Lock()
			r.rewrite = func(_ byte, payload []byte) []byte {
				payload[len(payload)/2] ^= 0x10
				return payload
			}
			r.mu.Unlock()
		}
		caps = r.round(rng, n, caps)
		if n == corruptAt {
			// The damaged frame fails its CRC: the standby must refuse to
			// guess, drop the link and come back for a full image, which
			// the next round delivers.
			waitUntil(t, "standby noticed the damaged frame", func() bool {
				return r.standby.metrics.divergence.Value() == wantResyncs
			})
			r.mu.Lock()
			r.rewrite = nil
			r.mu.Unlock()
			r.waitReplica(false)
			continue
		}
		waitUntil(t, "standby caught up", func() bool { return r.standby.Rounds() == r.primary.Rounds() })
		if got, want := image(r.standby), image(r.primary); !bytes.Equal(got, want) {
			var a, b snapshot.State
			if err := errors.Join(snapshot.DecodeInto(&a, got), snapshot.DecodeInto(&b, want)); err != nil {
				t.Fatal(err)
			}
			t.Fatalf("round %d: standby state differs from the primary's\nstandby: rounds %d steps %d budget %v health %v ages %v\n         caps %v pushed %v readings %v\nprimary: rounds %d steps %d budget %v health %v ages %v\n         caps %v pushed %v readings %v",
				n, a.Rounds, a.Steps, a.BudgetTotal, a.Health, a.ReportAgeMS, a.LastCaps, a.LastPushed, a.Readings,
				b.Rounds, b.Steps, b.BudgetTotal, b.Health, b.ReportAgeMS, b.LastCaps, b.LastPushed, b.Readings)
		}
	}

	// The script did what it says: degraded rounds, suppression, resync.
	st := r.primary.Snapshot()
	if st.DeadUnits != replayPerAg {
		t.Errorf("%d dead units at the end, want the killed agent's %d", st.DeadUnits, replayPerAg)
	}
	quiet := r.agents[replayAgents-1].agent
	if quiet.am.heartbeats.Value() < rounds/2 || r.agents[0].agent.am.heartbeats.Value() != 0 {
		t.Errorf("heartbeats: quiet agent %d, busy agent %d", quiet.am.heartbeats.Value(), r.agents[0].agent.am.heartbeats.Value())
	}
	if got := r.standby.metrics.divergence.Value(); got != wantResyncs {
		t.Errorf("dps_standby_divergence_total = %d, want %d", got, wantResyncs)
	}
	if r.standby.metrics.failovers.Value() != 0 {
		t.Error("standby took over")
	}
	if st := r.standby.Snapshot(); st.UptimeRounds != 0 || st.StateAgeRounds != rounds {
		t.Errorf("standby uptime/state-age = %d/%d, want 0/%d", st.UptimeRounds, st.StateAgeRounds, rounds)
	}

	// The comparison above leans on the shared clock; what the standby
	// replayed does not. With the clock moved between the two exports,
	// every controller section must still match byte for byte, and the
	// daemon section in all but its save stamp and report ages.
	want := image(r.primary)
	r.clk.Advance(1500 * time.Millisecond)
	got := image(r.standby)
	if !bytes.Equal(controllerSections(t, got), controllerSections(t, want)) {
		t.Error("standby's controller sections differ from the primary's")
	}
	var a, b snapshot.State
	if err := errors.Join(snapshot.DecodeInto(&a, got), snapshot.DecodeInto(&b, want)); err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || !slices.Equal(a.Readings, b.Readings) || !slices.Equal(a.LastCaps, b.LastCaps) ||
		!slices.Equal(a.LastPushed, b.LastPushed) || !slices.Equal(a.Health, b.Health) {
		t.Errorf("standby's daemon section differs from the primary's\nstandby: rounds %d health %v\n         caps %v pushed %v readings %v\nprimary: rounds %d health %v\n         caps %v pushed %v readings %v",
			a.Rounds, a.Health, a.LastCaps, a.LastPushed, a.Readings, b.Rounds, b.Health, b.LastCaps, b.LastPushed, b.Readings)
	}
}

// TestStandbyStatusFollowsBudget: /status on a following standby reports
// the budget the replay moves its controller to, without reading the
// controller. A poller calls Snapshot throughout while the primary moves
// its budget every fifth round (under -race, a read of the controller's
// budget would race Follow's SetTotalBudget), and after every followed
// round budget_w is the primary's.
func TestStandbyStatusFollowsBudget(t *testing.T) {
	r := newReplayRig(t)
	rng := rand.New(rand.NewSource(5))
	caps := r.primary.cfg.Manager.Caps().Clone()
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
		caps = r.round(rng, n, caps)
		if !r.follow() {
			t.Fatalf("round %d: standby diverged", n)
		}
		if got, want := r.standby.Snapshot().BudgetW, float64(r.primary.dps.Budget().Total); got != want {
			t.Fatalf("round %d: standby /status budget_w = %v, primary runs at %v", n, got, want)
		}
	}
}

// controllerSections returns an image's sections but the daemon's: the
// controller state, which no clock enters.
func controllerSections(t *testing.T, img []byte) []byte {
	var out []byte
	w := section.Walk(img[snapshot.HeaderSize:])
	for w.Next() {
		if w.ID != snapshot.SecDaemon {
			out = append(out, w.Raw...)
		}
	}
	if w.Stop != section.Clean {
		t.Errorf("image walk ended with %v", w.Stop)
	}
	return out
}

// TestStandbyReplayNeedsEveryInput is the mutation check on the test
// above, kept as a test: each field of the input frame is withheld in
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
			r := newReplayRig(t)
			budget := r.primary.dps.Budget().Total
			r.mu.Lock()
			r.rewrite = func(frame byte, payload []byte) []byte {
				if frame != proto.FrameDelta {
					return payload
				}
				return editInput(t, replayUnits, payload, func(in *snapshot.RoundInput) { edit(in, budget) })
			}
			r.mu.Unlock()
			rng := rand.New(rand.NewSource(3))
			caps := r.primary.cfg.Manager.Caps().Clone()
			for n := 1; n <= 40; n++ {
				switch n {
				case 10:
					r.kill(r.agents[1])
				case 20:
					if err := r.primary.dps.SetTotalBudget(budget * 0.8); err != nil {
						t.Fatal(err)
					}
				}
				caps = r.round(rng, n, caps)
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
	r := newReplayRig(t)
	rng := rand.New(rand.NewSource(5))
	caps := r.primary.cfg.Manager.Caps().Clone()
	for n := 1; n <= 12; n++ {
		if n == 6 {
			r.mu.Lock()
			r.rewrite = func(_ byte, payload []byte) []byte {
				return editInput(t, replayUnits, payload, func(in *snapshot.RoundInput) { in.Readings[3] = 1 })
			}
			r.mu.Unlock()
		}
		caps = r.round(rng, n, caps)
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
