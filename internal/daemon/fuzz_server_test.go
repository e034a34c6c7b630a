package daemon

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dps/internal/core"
	"dps/internal/engine"
	"dps/internal/power"
	"dps/internal/proto"
	"dps/internal/rapl"
	"dps/internal/telemetry"
)

// FuzzServer is the generated scenario rig for dpsd itself (DESIGN.md
// §13). A script drives a real Server on its injected clock, with real
// batch agents on scripted devices over net.Pipe, through reports at a
// band, garbage, silence, disconnects and rejoins, failing pushes, a
// restart restored from the final snapshot file, and a standby that
// attaches, follows and takes over. After every round the serving server
// is held to an engine-only model (core.DPS at SparseRefreshEvery 1) that
// no restart interrupts, fed the same accepted readings, dirty mask and
// health: caps bitwise, readings, stats but timings and skips, health by
// the clock-and-ownership rule with its gauges and counters, the ingest
// counters, the inherited round count, no pin or provenance violation and
// no watchdog alert where the budget must hold. Device truth: every device
// holds the cap the server believes its agent enforces, and the devices'
// caps sum within the budget with nothing allowed over, but in the round a
// push fails (ROADMAP item 5(c)'s mix) and in a round that mix left
// infeasible (item 3(c)). At band 0 every reporting unit reads what its
// meter made of its device's counter on the wire grid, and a following
// standby's state image equals the primary's.
//
// Script layout: byte 0 sizes the fleet, byte 1 configures it, then every
// 4 bytes are one step: op, who, value, rep.
//
//	fleet&3      agents − 1 (1 to 4 agents, all joined at the start)
//	fleet>>2&7   units per agent − 1 (1 to 8)
//	config&3     the server's report band: 0, 0.5, 2.5 or 25 W
//	config>>2&3  staleness clocks: off, 1 s/4 s, 3 s/10 s, or 2 s/none
//	config>>4&3  agents' forced full report: never, every 2, 7 or 64
//
// An op acts on agent who%agents, or on all when who&0x80 is set. Before
// the step's rounds:
//
//	opStandby    attach a standby, or with one attached take over: the
//	             primary closes, the standby serves, live agents rejoin it
//	opDrop       the agent's connection closes
//	opJoin       a disconnected agent handshakes
//	opFail       writes to the agent's connection fail until it rejoins
//	value ≠ 0    its demand becomes the mixed trace with value/32 W of
//	             wobble (opMixed), or value·0.75 W plus u%3 W
//	opFault      opDrop|opFail without opJoin (a dropped agent has no push
//	             to fail): a fault, whose value is no demand. With
//	             value&0x80 the agent's next report frame goes out cut
//	             after value%len bytes and its connection closes, as with
//	             opDrop; else value&4 restarts its devices' energy counters
//	             at 0, and their next value&3 reads fail, at most
//	             DefaultMeterErrorTolerance in a row (a rejoin primes its
//	             meters on a good read)
//
// In each of the step's rep+1 rounds the clock advances a second, every
// device draws min(demand, its cap), and every live agent reports but:
//
//	opQuiet      the agent sends nothing
//	opGarbage    its first unit reads 400+round%7 W, over the ceiling;
//	             with opMixed a constant 400 W, a wedged meter
//	opCut        (first round) once the reports land the server closes,
//	             writing its final snapshot; a fresh one restored from the
//	             file decides the round, and live agents rejoin it
func FuzzServer(f *testing.F) {
	for _, s := range serverSeeds() {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runServerScript(t, data) })
}

const (
	opStandby = 0x01
	opDrop    = 0x02
	opJoin    = 0x04
	opFail    = 0x08
	opQuiet   = 0x10
	opGarbage = 0x20
	opCut     = 0x40
	opMixed   = 0x80
	opFault   = opDrop | opFail
	allAgents = 0x80

	clocks1s = 1 << 2 // stale after 1 s, dead after 4 s
	clocks3s = 2 << 2 // stale after 3 s, dead after 10 s

	serverMaxSteps  = 32
	serverMaxRounds = 256
)

// serverSeed is a named script and the tallies (serverRun.tl) it must
// raise; each carries the claims of a hand-written suite it replaced.
type serverSeed struct {
	name string
	data []byte
	want string
}

// serverScript builds fuzz input: agents of per units, config, then steps.
func serverScript(agents, per int, config byte, steps ...[4]byte) []byte {
	b := []byte{byte(agents-1) | byte(per-1)<<2, config}
	for _, s := range steps {
		b = append(b, s[:]...)
	}
	return b
}

func serverSeeds() []serverSeed {
	type s = [4]byte
	return []serverSeed{
		// The budget's probe: 4 units under 440 W in two agents. Agent 0
		// runs at its 110 W caps, reports 20 W once and closes; its devices
		// keep what they were last pushed, which agent 1 may not be dealt.
		{"orphaned-agent/health=off", serverScript(2, 2, 0,
			s{0, allAgents, 160, 2}, s{0, 0, 27, 0}, s{opDrop, 0, 0, 0}, s{0, 1, 230, 20}), "degraded"},
		{"orphaned-agent/health=on", serverScript(2, 2, clocks3s,
			s{0, allAgents, 160, 2}, s{0, 0, 27, 0}, s{opDrop, 0, 0, 0}, s{0, 1, 230, 20}), "degraded"},
		// A healthy fleet on mixed demand: no audit ever fires.
		{"clean", serverScript(2, 2, clocks3s, s{opMixed, allAgents, 64, 19}), "rounds"},
		// A report, a round, caps on the devices; then the agent leaves.
		{"end-to-end", serverScript(1, 2, 0, s{0, allAgents, 160, 0}, s{opDrop, 0, 0, 0}), "rounds"},
		// A disconnect frees the range for the next handshake.
		{"range-freed", serverScript(1, 2, 0, s{opDrop, 0, 100, 0}, s{opJoin, 0, 0, 0}), "recoveries"},
		// A quiet agent still sends the complete vector every second report.
		{"refresh-every", serverScript(1, 2, 1<<4|2, s{0, allAgents, 160, 4}), "heartbeats refreshes"},
		// A full first report, a quiet agent's heartbeats, sparse deltas.
		{"delta-end-to-end", serverScript(2, 5, 1, s{0, 0, 120, 0}, s{opMixed, 1, 1, 19}),
			"heartbeats suppressed deltas"},
		// fresh → stale → dead → fresh on a re-handshake, pinned throughout.
		{"health-lifecycle", serverScript(1, 4, clocks3s,
			s{0, allAgents, 160, 1}, s{opQuiet, 0, 0, 11}, s{opDrop | opJoin, 0, 20, 2}), "degraded dead recoveries"},
		// Heartbeats keep a quiet agent fresh past DeadAfter; silence decays it.
		{"batch-health-clock", serverScript(1, 3, clocks3s|2,
			s{0, allAgents, 120, 12}, s{opQuiet, 0, 0, 10}), "degraded dead heartbeats"},
		// A garbage-reporting unit goes stale; its sane neighbour stays fresh.
		{"garbage", serverScript(1, 2, clocks3s, s{0, allAgents, 133, 1}, s{opGarbage, 0, 0, 5}), "degraded garbage"},
		// A killed agent stays pinned while away, and rejoins within a round.
		{"kill-restart", serverScript(3, 2, clocks1s,
			s{opMixed, allAgents, 64, 5}, s{opDrop, 1, 0, 7}, s{opJoin, 1, 0, 3}), "degraded dead recoveries"},
		// A failed push pins its agent at what its devices hold until it rejoins.
		{"push-fail", serverScript(3, 2, 0,
			s{opMixed, allAgents, 64, 5}, s{opFail, 1, 0, 4}, s{opDrop | opJoin, 1, 0, 3}), "degraded failed recoveries"},
		// A kill, then a restart from the final snapshot that decides as if it
		// never stopped; the killed agent's rejoin clears it.
		{"kill-restore", serverScript(3, 2, clocks1s,
			s{opMixed, allAgents, 64, 3}, s{opDrop, 1, 0, 3}, s{opCut, 0, 0, 4}, s{opJoin, 1, 0, 2}),
			"degraded dead cuts recoveries"},
		// A standby follows through a kill and takes over with the pins.
		{"standby-takeover", serverScript(3, 2, clocks1s,
			s{opStandby | opMixed, allAgents, 64, 2}, s{opDrop, 1, 0, 5}, s{opStandby, 0, 0, 2}, s{opJoin, 1, 0, 2}),
			"degraded takeovers followed recoveries"},
		// A standby's image equals the primary's through kills, a rejoin, an
		// agent that only heartbeats and Algorithm 3's quiet window.
		{"standby-replay", serverScript(4, 5, clocks1s,
			s{opStandby | opMixed, allAgents, 64, 9}, s{0, 3, 67, 29}, s{opDrop, 1, 0, 11}, s{opJoin, 1, 0, 19},
			s{0, allAgents, 5, 12}, s{opMixed, 0, 64, 9}, s{opDrop, 2, 0, 9}),
			"degraded dead followed recoveries heartbeats restores"},
		// Delta agents at a 0.5 W band: one moves every round, three settle.
		{"sparse-rounds", serverScript(4, 8, 1, s{0, allAgents, 71, 0}, s{opMixed, 0, 64, 159}),
			"skipped subsets heartbeats suppressed"},
		// At band 0 a delta session leaves the controller what full reports would.
		{"batch-delta", serverScript(4, 6, 0, s{opMixed, allAgents, 32, 39}, s{0, 1, 40, 39}, s{0, 2, 90, 39}),
			"suppressed subsets"},
		// A successor's first round, on the adopted readings alone, keeps the
		// settle certificates it inherited: restored, or a standby taking over.
		{"takeover-sparse/restore", serverScript(4, 8, 0,
			s{0, allAgents, 80, 0}, s{opMixed, 0, 64, 79}, s{opCut | opQuiet, allAgents, 0, 0}, s{0, 0, 0, 20}),
			"cuts skipped successorSkips"},
		{"takeover-sparse/takeover", serverScript(4, 8, 0,
			s{opStandby, allAgents, 80, 0}, s{opMixed, 0, 64, 79}, s{opStandby | opQuiet, allAgents, 0, 0}, s{0, 0, 0, 20}),
			"takeovers followed skipped successorSkips"},
		// A meter wedged on one garbage value: the delta agent sends it once
		// and then withholds it, and those omissions must not keep the unit
		// fresh at its last good reading; a sane reading brings it back.
		{"constant-garbage", serverScript(1, 2, clocks3s,
			s{0, allAgents, 133, 1}, s{opGarbage | opMixed, 0, 0, 5}, s{0, 0, 0, 1}), "degraded garbage recoveries"},
		// Faults at the meters and on the wire: read errors a tolerant meter
		// rides through on its last sample and then averages over, a counter
		// restarted at 0 whose reading is refused, a kill and a rejoin, and
		// a report frame cut after its first record.
		{"chaos", serverScript(3, 2, clocks1s,
			s{opMixed, allAgents, 64, 3}, s{opFault, 0, 3, 4}, s{opFault, 1, 4, 3}, s{opDrop, 2, 0, 4},
			s{opJoin, 2, 0, 2}, s{opFault, 0, 0x85, 2}, s{opJoin, 0, 0, 3}),
			"held rebases garbage dead recoveries truncated"},
	}
}

// runServerSeed runs the named seed and demands it raise its tallies.
func runServerSeed(t *testing.T, name string) *serverRun {
	t.Helper()
	i := slices.IndexFunc(serverSeeds(), func(s serverSeed) bool { return s.name == name })
	if i < 0 {
		t.Fatalf("no server seed %q", name)
	}
	s := serverSeeds()[i]
	r := runServerScript(t, s.data)
	for _, w := range strings.Fields(s.want) {
		if r.tl[w] == 0 {
			t.Errorf("%d rounds and no %s: the seed is vacuous", r.tl["rounds"], w)
		}
	}
	return r
}

// testClock is a manual clock: tests advance it from the driving
// goroutine while a standby's goroutine reads it.
type testClock struct{ ns atomic.Int64 }

func newTestClock() *testClock {
	c := &testClock{}
	c.ns.Store(time.Unix(1_700_000_000, 0).UnixNano())
	return c
}

func (c *testClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *testClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// newRigServer builds a DPS server on clk with staleness clocks at 1 s/4 s,
// after mutate edits its config.
func newRigServer(t testing.TB, units int, clk *testClock, mutate func(*ServerConfig)) *Server {
	t.Helper()
	mgr, err := core.NewDPS(core.DefaultConfig(units, testBudget(units)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ServerConfig{Manager: mgr, Units: units, Interval: time.Second, StaleAfter: time.Second, DeadAfter: 4 * time.Second}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.now = clk.Now
	srv.ResetHealthClocks()
	return srv
}

// scriptDevice is a Device whose energy counter the script advances and
// whose cap is what its agent last programmed.
type scriptDevice struct {
	uj, pending uint64        // the counter; µJ it moved since its meter last read it
	failing     int           // reads that fail before the next good one
	gap         int           // reads that failed since its meter last read it
	held        power.Watts   // what its meter last read, which a failed read repeats
	cap         atomic.Uint64 // float bits: set by the agent's cap goroutine, read by the rig
}

func (d *scriptDevice) EnergyMicroJoules() (uint64, error) {
	if d.failing > 0 {
		d.failing--
		return 0, errors.New("scripted read error")
	}
	return d.uj % rapl.CounterWrap, nil
}
func (d *scriptDevice) MaxPower() power.Watts { return 165 }
func (d *scriptDevice) MinPower() power.Watts { return 10 }
func (d *scriptDevice) SetCap(w power.Watts) error {
	d.cap.Store(math.Float64bits(float64(w)))
	return nil
}
func (d *scriptDevice) Cap() (power.Watts, error) {
	return power.Watts(math.Float64frombits(d.cap.Load())), nil
}

// draw runs the device at w watts for one second.
func (d *scriptDevice) draw(w power.Watts) {
	delta := uint64(float64(w)*1e6 + 0.5)
	d.uj += delta
	d.pending += delta
}

// rebase restarts its energy counter at 0, as a node's reboot does: to a
// meter, a move of CounterWrap less the old count.
func (d *scriptDevice) rebase() {
	d.pending += (rapl.CounterWrap - d.uj%rapl.CounterWrap) % rapl.CounterWrap
	d.uj = 0
}

// reading is what its meter reads in a one-second report: on a failed read
// the sample it holds, else all the counter moved since it last read it,
// modulo the counter's wrap, averaged over the seconds since.
func (d *scriptDevice) reading() power.Watts {
	if d.failing > 0 {
		d.gap++
		return d.held
	}
	d.held = power.Watts(float64(d.pending%rapl.CounterWrap) / 1e6 / float64(1+d.gap))
	d.pending, d.gap = 0, 0
	return d.held
}

// failConn is the server's end of an agent connection whose writes can be
// made to fail, as a push to a dying node does.
type failConn struct {
	net.Conn
	fail atomic.Bool
}

func (c *failConn) Write(p []byte) (int, error) {
	if c.fail.Load() {
		return 0, errors.New("scripted write failure")
	}
	return c.Conn.Write(p)
}

// cutConn is an agent's end of its connection. Armed (cut ≥ 0), it sends
// only the first cut%len bytes of the next report frame and closes, as a
// connection lost mid-write does; apply echoes, from the agent's cap
// goroutine, pass and never read cut.
type cutConn struct {
	net.Conn
	cut int
}

func (c *cutConn) Write(p []byte) (int, error) {
	if p[0] == proto.FrameApply || c.cut < 0 {
		return c.Conn.Write(p)
	}
	if n := c.cut % len(p); n > 0 {
		c.Conn.Write(p[:n])
	}
	c.Conn.Close()
	return 0, errors.New("scripted cut")
}

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

// pipeListener is a taken-over standby's agent listener: agents reach the
// server through Handle directly, so it only blocks until closed.
type pipeListener struct {
	done chan struct{}
	once sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) { <-l.done; return nil, net.ErrClosed }
func (l *pipeListener) Addr() net.Addr            { return &net.TCPAddr{} }
func (l *pipeListener) Close() error              { l.once.Do(func() { close(l.done) }); return nil }

// waitUntil polls cond until it holds or a deadline expires.
func waitUntil(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for spins := 0; !cond(); spins++ {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		if spins < 200 {
			runtime.Gosched()
		} else {
			time.Sleep(time.Millisecond)
		}
	}
}

// image exports and encodes a server's state between rounds.
func image(s *Server) []byte {
	s.roundMu.Lock()
	defer s.roundMu.Unlock()
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return append([]byte(nil), s.encodeImage(s.rounds.Load())...)
}

// rigAgent is one real batch agent on scripted devices, and what the rig
// knows it sent and wants.
type rigAgent struct {
	first     int
	devs      []*scriptDevice
	read      []power.Watts // what its meters read when it last reported
	reported  bool          // whether it reported this round
	lastSent  []int         // deciwatts last sent per unit this session, -1 for none
	sinceFull int           // reports since it last sent every unit
	agent     *Agent        // nil while disconnected
	conn      *cutConn
	srvSide   *failConn
	capsDone  chan struct{} // closes when the session's cap goroutine exits
	applied   uint64        // cap batches the session must have applied

	mixed  bool
	level  power.Watts
	wobble float64
}

// serverRun is a primary serving real agents, an optional warm standby
// following it through a frameTap, and the snapshot file a cut restores
// from, all on one manual clock; and the model every round is held to.
type serverRun struct {
	t           testing.TB
	clk         *testClock
	units       int
	stale, dead time.Duration
	band        power.Watts
	refresh     int // the agents' RefreshEvery
	snapPath    string
	primary     *Server
	standby     *Server
	agents      []*rigAgent
	closers     []func()
	// Upstream frames, records and heartbeats the primary must have
	// ingested.
	frames, records, heartbeats uint64

	mu      sync.Mutex
	rewrite func(frame byte, payload []byte) []byte // nil: pass through

	model    *engine.Engine
	dps      *core.DPS
	readings power.Vector
	dirty    *core.DirtyMask
	health   []core.UnitHealth
	// prev is the serving server's retained health, which its transition
	// counters count from; transitions is what they must read.
	prev        []core.UnitHealth
	transitions [9]uint64
	touched     []time.Time // the staleness clocks
	refused     []bool      // the unit's latest record was refused: omissions leave its clock
	gone        []bool
	pushed      []uint64

	lane      string
	inherited uint64 // rounds the serving server did not decide itself
	successor bool   // the next round is a successor's first
	round     int
	tl        map[string]int
}

// runServerScript runs data as FuzzServer's layout reads it.
func runServerScript(t *testing.T, data []byte) *serverRun {
	if len(data) < 2 {
		return &serverRun{}
	}
	r := newServerRun(t, data[0], data[1])
	for b, steps := data[2:], 0; len(b) >= 4 && steps < serverMaxSteps && r.round < serverMaxRounds; b, steps = b[4:], steps+1 {
		r.step(b[0], b[1], b[2], int(b[3])+1)
	}
	return r
}

func newServerRun(t testing.TB, fleet, config byte) *serverRun {
	agents, per := 1+int(fleet&3), 1+int(fleet>>2&7)
	clocks := [4][2]time.Duration{{}, {time.Second, 4 * time.Second}, {3 * time.Second, 10 * time.Second}, {2 * time.Second, 0}}[config>>2&3]
	units := agents * per
	ccfg := core.DefaultConfig(units, testBudget(units))
	ccfg.SparseRefreshEvery = 1
	d, err := core.NewDPS(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &serverRun{
		t: t, clk: newTestClock(), units: units, stale: clocks[0], dead: clocks[1],
		band: [4]power.Watts{0, 0.5, 2.5, 25}[config&3], refresh: [4]int{-1, 2, 7, 0}[config>>4&3], snapPath: filepath.Join(t.TempDir(), "state.dps"),
		model: engine.New(d), dps: d, readings: make(power.Vector, units), dirty: core.NewDirtyMask(units),
		health: make([]core.UnitHealth, units), prev: make([]core.UnitHealth, units),
		touched: make([]time.Time, units), refused: make([]bool, units), gone: make([]bool, units), pushed: make([]uint64, (units+63)/64),
		lane: "served", tl: map[string]int{},
	}
	r.primary = r.server(nil)
	t.Cleanup(func() {
		for i := len(r.closers) - 1; i >= 0; i-- {
			r.closers[i]()
		}
		for _, a := range r.agents {
			if a.agent != nil {
				a.conn.Close()
			}
		}
	})
	initial := proto.FromDeciwatts(proto.ToDeciwatts(r.primary.eng.Enforced[0]))
	for i := 0; i < agents; i++ {
		a := &rigAgent{first: i * per, read: make([]power.Watts, per), lastSent: make([]int, per)}
		for j := 0; j < per; j++ {
			a.devs = append(a.devs, &scriptDevice{})
			a.devs[j].SetCap(initial)
		}
		r.agents = append(r.agents, a)
		r.rejoin(a)
	}
	return r
}

// server builds a server of the run's config, plus extra.
func (r *serverRun) server(extra func(*ServerConfig)) *Server {
	srv := newRigServer(r.t, r.units, r.clk, func(sc *ServerConfig) {
		sc.Interval = time.Hour // a taken-over standby's Serve never ticks
		sc.SnapshotPath, sc.SnapshotEvery = r.snapPath, math.MaxInt32
		sc.DeltaEpsilon, sc.StaleAfter, sc.DeadAfter = r.band, r.stale, r.dead
		sc.WatchEnabled = true
		if extra != nil {
			extra(sc)
		}
	})
	r.closers = append(r.closers, func() { srv.Close() })
	return srv
}

// rejoin handshakes an agent with the primary on a fresh session: its
// units are answered for, and fresh but for those whose latest record was
// refused.
func (r *serverRun) rejoin(a *rigAgent) {
	r.t.Helper()
	devices := make([]rapl.Device, len(a.devs))
	for i, d := range a.devs {
		devices[i] = d
		d.failing, d.gap, d.held = 0, 0, 0 // the handshake primes the meters on a good read
	}
	agent, err := NewAgent(AgentConfig{FirstUnit: power.UnitID(a.first), Devices: devices,
		Interval: time.Second, Batch: true, RefreshEvery: r.refresh})
	if err != nil {
		r.t.Fatal(err)
	}
	client, server := net.Pipe()
	a.conn, a.srvSide = &cutConn{Conn: client, cut: -1}, &failConn{Conn: server}
	go r.primary.Handle(a.srvSide)
	if err := agent.Handshake(a.conn); err != nil {
		r.t.Fatal(err)
	}
	capsDone := make(chan struct{})
	go func() {
		defer close(capsDone)
		for agent.ReceiveCaps() == nil {
		}
	}()
	a.agent, a.capsDone, a.applied, a.sinceFull = agent, capsDone, 0, 0
	for i, d := range a.devs {
		u := a.first + i
		a.lastSent[i], d.pending = -1, 0
		r.gone[u] = false
		if !r.refused[u] {
			r.touched[u] = r.clk.Now()
		}
	}
}

// drop closes an agent's connection; no one answers for its units now.
func (r *serverRun) drop(a *rigAgent) {
	r.t.Helper()
	r.disconnect(a, func() { a.conn.Close() })
}

// disconnect loses an agent's connection to closing, and waits until the
// server has let it go: all the connection will ever ingest is in.
func (r *serverRun) disconnect(a *rigAgent, closing func()) {
	r.t.Helper()
	want := r.primary.Connected() - 1
	closing()
	<-a.capsDone
	a.agent = nil
	waitUntil(r.t, "dropped agent unregistered", func() bool { return r.primary.Connected() == want })
	r.orphan(a)
}

func (r *serverRun) orphan(a *rigAgent) {
	for u := a.first; u < a.first+len(a.devs); u++ {
		r.gone[u] = true
	}
}

// succeed closes the primary (writing its final snapshot) and serves from
// the one next makes; in the model no unit is answered for until its agent
// rejoins, as the live ones do now, and the dirty set is MarkChanged's.
func (r *serverRun) succeed(lane string, next func() *Server) {
	r.t.Helper()
	if err := r.primary.Close(); err != nil {
		r.t.Fatal(err)
	}
	var live []*rigAgent
	for _, a := range r.agents {
		if a.agent != nil {
			<-a.capsDone
			a.agent = nil
			live = append(live, a)
		}
	}
	r.primary, r.lane, r.successor = next(), lane, true
	r.frames, r.records, r.heartbeats = 0, 0, 0
	r.inherited, r.transitions = r.primary.Rounds(), [9]uint64{}
	for u := range r.gone {
		r.gone[u], r.refused[u] = true, false
	}
	for _, a := range live {
		r.rejoin(a)
	}
	r.dirty.Reset()
	r.dps.MarkChanged(r.dirty, r.readings)
}

// attach starts a warm standby following the primary.
func (r *serverRun) attach() {
	r.t.Helper()
	sb := r.server(func(sc *ServerConfig) { sc.StandbyOf = "primary-in-process" })
	primary := r.primary
	sb.dial = func(string, string) (net.Conn, error) {
		client, server := net.Pipe()
		go primary.Handle(&frameTap{Conn: server, rewrite: func(frame byte, payload []byte) []byte {
			r.mu.Lock()
			defer r.mu.Unlock()
			if r.rewrite == nil {
				return payload
			}
			return r.rewrite(frame, payload)
		}})
		return client, nil
	}
	l := &pipeListener{done: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- sb.RunStandby(ctx, func() (net.Listener, error) { return l, nil }) }()
	r.closers = append(r.closers, func() {
		cancel()
		sb.Close()
		l.Close()
		if err := <-done; err != nil {
			r.t.Errorf("RunStandby: %v", err)
		}
	})
	r.standby = sb
	r.waitReplica(false)
}

// waitReplica waits until the primary holds exactly one replica whose
// synced flag is as given.
func (r *serverRun) waitReplica(synced bool) {
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

// follow waits for the standby to have replayed the primary's last round
// and reports whether it did; false means it diverged instead.
func (r *serverRun) follow() bool {
	r.t.Helper()
	diverged := false
	waitUntil(r.t, "standby caught up or diverged", func() bool {
		diverged = r.standby.metrics.divergence.Value() > 0
		return diverged || r.standby.Rounds() == r.primary.Rounds()
	})
	return !diverged
}

// targets is the agents an op's who byte names.
func (r *serverRun) targets(who byte) []*rigAgent {
	if who&allAgents != 0 {
		return r.agents
	}
	return r.agents[int(who)%len(r.agents):][:1]
}

// step runs one script step: its events, then its rounds, each followed
// by the standby's check when one is attached.
func (r *serverRun) step(op, who, value byte, rounds int) {
	r.events(op, who, value)
	for k := 0; k < rounds && r.round < serverMaxRounds; k++ {
		r.roundOnce(op, who, k == 0)
		if r.standby == nil {
			continue
		}
		if !r.follow() {
			r.t.Fatalf("round %d: the standby diverged", r.round)
		}
		if !bytes.Equal(image(r.standby), image(r.primary)) {
			r.t.Fatalf("round %d: the standby's state image differs from the primary's", r.round)
		}
		r.tl["followed"]++
	}
}

// events applies what a step does before its rounds.
func (r *serverRun) events(op, who, value byte) {
	if sb := r.standby; op&opStandby != 0 && sb == nil {
		r.attach()
	} else if op&opStandby != 0 {
		r.standby = nil
		r.succeed("taken over", func() *Server {
			waitUntil(r.t, "standby takeover", func() bool { return sb.metrics.failovers.Value() == 1 })
			return sb
		})
		r.tl["takeovers"]++
	}
	if op&(opFault|opJoin) == opFault {
		r.fault(who, value)
		return
	}
	for _, a := range r.targets(who) {
		if op&opDrop != 0 && a.agent != nil {
			r.drop(a)
		}
		if op&opJoin != 0 && a.agent == nil {
			r.rejoin(a)
		}
		if op&opFail != 0 && a.agent != nil {
			a.srvSide.fail.Store(true)
		}
		if value != 0 {
			a.mixed, a.level, a.wobble = op&opMixed != 0, power.Watts(value)*0.75, float64(value)/32
		}
	}
}

// fault arms opFault's value on the agents who names.
func (r *serverRun) fault(who, value byte) {
	for _, a := range r.targets(who) {
		if value&0x80 != 0 {
			if a.agent != nil {
				a.conn.cut = int(value)
			}
			continue
		}
		if value&4 != 0 && a.agent != nil {
			r.tl["rebases"]++
		}
		for _, d := range a.devs {
			if value&4 != 0 {
				d.rebase()
			}
			d.failing = min(d.failing+int(value&3), DefaultMeterErrorTolerance-d.gap)
		}
	}
}

// mixedDemand is unit u's demand in round n under the mixed trace's
// classes — a flipper between 150 and 20 W every three rounds, a
// triangular ramp over [30, 160] W, an idler at 8 W bursting to 140 W for
// 10 rounds in 50, a steady 160 W, and a moderate 70 W — plus a
// deterministic wobble in [−wobble, wobble) W.
func mixedDemand(u, n int, wobble float64) float64 {
	var d float64
	switch u % 5 {
	case 0:
		d = 20
		if (n/3+u)%2 == 0 {
			d = 150
		}
	case 1:
		phase := float64((n + 7*u) % 80)
		d = 30 + 3.25*min(phase, 80-phase)
	case 2:
		d = 8
		if (n+u)%50 < 10 {
			d = 140
		}
	case 3:
		d = 160
	default:
		d = 70
	}
	h := (uint64(u)<<32 | uint64(n)) + 0x9e3779b97f4a7c15 // splitmix64
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	h ^= h >> 31
	return d + wobble*(float64(h>>11)/(1<<52)-1)
}

// report sends one report from a live agent and lands what the server
// will accept of it in the model: but in a forced full report, a unit
// within the band of what it last sent is omitted, which refreshes its
// clock; a refused reading does not, nor do omissions after it until a
// reading is accepted.
func (r *serverRun) report(a *rigAgent, now time.Time) {
	r.t.Helper()
	if a.conn.cut >= 0 { // the server must ingest none of a cut frame
		r.disconnect(a, func() {
			if a.agent.ReportOnce(1) == nil {
				r.t.Fatalf("round %d: a cut report went through", r.round)
			}
		})
		a.reported = false
		r.tl["truncated"]++
		return
	}
	ceiling, epsDW := 2*testBudget(r.units).UnitMax, int(proto.ToDeciwatts(r.band))
	full := a.sinceFull+1 >= cmp.Or(r.refresh, DefaultRefreshEvery) && r.refresh >= 0
	if full && a.lastSent[0] >= 0 {
		r.tl["refreshes"]++
	}
	sent := 0
	for i, d := range a.devs {
		u := a.first + i
		if d.failing > 0 {
			r.tl["held"]++
		}
		a.read[i] = d.reading()
		dw := int(proto.ToDeciwatts(a.read[i]))
		if !full && a.lastSent[i] >= 0 && max(dw-a.lastSent[i], a.lastSent[i]-dw) <= epsDW {
			if !r.refused[u] {
				r.touched[u] = now
			}
			r.tl["suppressed"]++
			continue
		}
		a.lastSent[i] = dw
		sent++
		v := proto.FromDeciwatts(uint16(dw))
		if r.refused[u] = badReading(v, ceiling); !r.refused[u] {
			r.readings[u], r.touched[u] = v, now
			r.dirty.Mark(u)
		} else {
			r.tl["garbage"]++
		}
	}
	switch a.sinceFull++; {
	case sent == len(a.devs):
		a.sinceFull = 0
	case sent == 0:
		r.heartbeats++
		r.tl["heartbeats"]++
	default:
		r.tl["deltas"]++
	}
	if err := a.agent.ReportOnce(1); err != nil {
		r.t.Fatalf("round %d: %v", r.round, err)
	}
	r.frames++
	r.records += uint64(sent)
}

// roundOnce runs one round of a step and checks it.
func (r *serverRun) roundOnce(op, who byte, first bool) {
	r.t.Helper()
	r.round++
	r.clk.Advance(time.Second)
	now := r.clk.Now()
	targeted := r.targets(who)
	for _, a := range r.agents {
		hit := slices.Contains(targeted, a)
		for i, d := range a.devs {
			c, _ := d.Cap()
			w := a.level + power.Watts((a.first+i)%3)
			if a.mixed {
				w = power.Watts(max(mixedDemand(a.first+i, r.round, a.wobble), 0))
			}
			if w = min(w, c); op&opGarbage != 0 && hit && i == 0 {
				w = power.Watts(400 + r.round%7)
				if op&opMixed != 0 {
					w = 400
				}
			}
			d.draw(w)
		}
		if a.reported = a.agent != nil && !(op&opQuiet != 0 && hit); a.reported {
			r.report(a, now)
		}
	}
	m := &r.primary.metrics
	// A batch is counted before its records. Waiting for at least what the
	// agents sent lets a frame too many (part of a cut one) fail at once.
	frames := func() uint64 { return m.ingestBatches.Value() + m.ingestHeartbeats.Value() }
	waitUntil(r.t, "reports ingested", func() bool { return frames() >= r.frames && m.ingestRecords.Value() >= r.records })
	if frames() != r.frames || m.ingestRecords.Value() != r.records || m.ingestHeartbeats.Value() != r.heartbeats {
		r.t.Fatalf("round %d: the server ingested %d frames, %d records and %d heartbeats, the agents sent %d, %d and %d",
			r.round, frames(), m.ingestRecords.Value(), m.ingestHeartbeats.Value(), r.frames, r.records, r.heartbeats)
	}
	if op&opCut != 0 && first && r.primary.Rounds() > r.primary.inheritedRounds.Load() {
		if r.standby != nil { // its primary is going away for good
			r.closers[len(r.closers)-1]()
			r.closers, r.standby = r.closers[:len(r.closers)-1], nil
		}
		r.succeed("restored", func() *Server {
			srv := r.server(nil)
			if err := srv.RestoreFromSnapshot(r.snapPath); err != nil {
				r.t.Fatalf("round %d: %v", r.round, err)
			}
			return srv
		})
		r.tl["cuts"]++
	}

	// The model's round: the clock-and-ownership rule, the budget the
	// server holds, and what the server accepted.
	stale, dead := 0, 0
	for u := range r.health {
		h := core.HealthFresh
		switch age := now.Sub(r.touched[u]); {
		case r.dead > 0 && age >= r.dead:
			h = core.HealthDead
		case r.stale > 0 && age >= r.stale:
			h = core.HealthStale
		}
		if h == core.HealthFresh && r.gone[u] {
			h = core.HealthStale
		}
		r.health[u] = h
		stale += int(h) & 1
		dead += int(h) >> 1
		if prev := r.prev[u]; h != prev {
			if r.stale > 0 || r.dead > 0 {
				r.transitions[int(prev)*3+int(h)]++
			}
			if h == core.HealthFresh {
				r.tl["recoveries"]++
			}
			r.prev[u] = h
		}
	}
	if b := r.primary.cfg.Manager.Budget().Total; b != r.dps.Budget().Total {
		if err := r.dps.SetTotalBudget(b); err != nil {
			r.t.Fatal(err)
		}
	}
	// The budget can hold only if the units no agent answers for, pinned
	// at what their devices hold, and the rest cut to UnitMin fit in it.
	// After a push failure mixed two rounds' caps they may not: that round
	// is infeasible, which ROADMAP item 3(c) is to flag.
	var floor int64
	b := r.dps.Budget()
	for u, h := range r.health {
		if h == core.HealthFresh {
			floor += power.Deciwatts(b.UnitMin)
		} else {
			floor += power.Deciwatts(r.model.Enforced[u])
		}
	}
	feasible := floor <= power.FloorDeciwatts(b.Total)
	d, stats := r.model.Decide(core.Snapshot{Power: r.readings, Interval: 1, Health: r.health, Dirty: r.dirty})

	failing := 0
	clear(r.pushed)
	for _, a := range r.agents {
		if a.agent != nil && a.srvSide.fail.Load() {
			failing++
		} else if a.agent != nil {
			a.applied++
			for wi := a.first >> 6; wi<<6 < a.first+len(a.devs); wi++ {
				r.pushed[wi] |= core.WordMaskForRange(a.first, a.first+len(a.devs), wi<<6)
			}
		}
	}
	if _, err := r.primary.DecideOnce(1); (err != nil) != (failing > 0) {
		r.t.Fatalf("round %d: DecideOnce returned %v with %d failing agents", r.round, err, failing)
	}
	for _, a := range r.agents {
		switch {
		case a.agent != nil && a.srvSide.fail.Load():
			r.orphan(a)
			r.tl["failed"]++
		case a.agent != nil:
			waitUntil(r.t, "caps applied", func() bool { return a.agent.Applied() == a.applied })
		}
	}
	r.model.Commit(d.Delivered, r.pushed)
	r.check(d, stats, stale, dead, feasible, failing > 0)
	r.dirty.Reset()
}

// check holds the round the primary just published to the model's.
func (r *serverRun) check(d telemetry.Decision, stats core.RoundStats, stale, dead int, feasible, mixed bool) {
	r.t.Helper()
	srv := r.primary
	var rec *telemetry.Round
	srv.recorder.Each(1, func(x *telemetry.Round) { rec = x })
	fail := func(format string, args ...any) {
		r.t.Helper()
		r.t.Fatalf("round %d (%s server): %s", r.round, r.lane, fmt.Sprintf(format, args...))
	}
	if rec == nil || rec.Round != srv.Rounds() || rec.Inherited != r.inherited {
		fail("no record of it, or one of round %d inheriting %d", srv.Rounds(), r.inherited)
	}
	limit := power.FloorDeciwatts(power.Watts(rec.BudgetW))
	holds := feasible && !mixed
	// Device truth: what the hardware holds, in the deciwatts it was
	// programmed with.
	var sum int64
	for _, a := range r.agents {
		for i, dev := range a.devs {
			u := a.first + i
			c, _ := dev.Cap()
			if want := proto.FromDeciwatts(proto.ToDeciwatts(srv.eng.Enforced[u])); c != want {
				fail("unit %d's device holds %v W, the server believes its agent enforces %v W", u, c, want)
			}
			sum += power.Deciwatts(c)
			if r.band == 0 && a.reported && !badReading(a.read[i], 2*testBudget(r.units).UnitMax) &&
				r.readings[u] != proto.FromDeciwatts(proto.ToDeciwatts(a.read[i])) {
				fail("unit %d reads %v W at a zero band, its device drew %v W", u, r.readings[u], a.read[i])
			}
		}
	}
	if holds && sum > limit {
		fail("the devices hold Σ %d dW of caps over the %d dW budget", sum, limit)
	}

	same := func(a, b power.Vector) bool {
		return slices.EqualFunc(a, b, func(x, y power.Watts) bool { return math.Float64bits(float64(x)) == math.Float64bits(float64(y)) })
	}
	switch {
	case !same(rec.Reading, r.readings):
		fail("readings %v, accepted %v", rec.Reading, r.readings)
	case len(rec.Health) != 0 && !slices.Equal(rec.Health, r.health) ||
		len(rec.Health) == 0 && slices.ContainsFunc(r.health, func(h core.UnitHealth) bool { return h != core.HealthFresh }):
		fail("health %v, the rule says %v", rec.Health, r.health)
	case !same(rec.Cap, d.Delivered):
		fail("caps %v, the model's %v", rec.Cap, d.Delivered)
	case outcome(rec.Stats) != outcome(stats):
		fail("decided %+v, the model %+v", rec.Stats, stats)
	case rec.StaleUnits != stale || rec.DeadUnits != dead ||
		srv.metrics.staleUnits.Value() != float64(stale) || srv.metrics.deadUnits.Value() != float64(dead):
		fail("%d stale and %d dead units recorded, gauges %v and %v; want %d and %d",
			rec.StaleUnits, rec.DeadUnits, srv.metrics.staleUnits.Value(), srv.metrics.deadUnits.Value(), stale, dead)
	case rec.PinViolations != 0 || rec.ProvViolations != 0:
		fail("%d pin and %d provenance violations", rec.PinViolations, rec.ProvViolations)
	case feasible && rec.CapSumDW > limit || holds && srv.eng.Enforced.SumDeciwatts() > limit:
		fail("Σ delivered %d dW, Σ enforced %d dW over the %d dW budget", rec.CapSumDW, srv.eng.Enforced.SumDeciwatts(), limit)
	case holds && srv.Watcher().FiringCount() != 0:
		fail("%d watchdog alerts firing", srv.Watcher().FiringCount())
	}
	for i, c := range srv.metrics.transitions {
		if c != nil && c.Value() != r.transitions[i] {
			fail("dps_health_transitions_total{%s→%s} = %d, want %d", core.UnitHealth(i/3), core.UnitHealth(i%3), c.Value(), r.transitions[i])
		}
	}

	st := rec.Stats
	r.tl["skipped"] += st.SkippedUnits
	for k, hit := range map[string]bool{"rounds": true, "subsets": st.DirtyUnits > 0 && st.DirtyUnits < r.units,
		"degraded": stale+dead > 0, "dead": dead > 0, "restores": st.Restored, "successorSkips": r.successor && st.SkippedUnits > 0} {
		if hit {
			r.tl[k]++
		}
	}
	r.successor = false
}

// outcome is a round's stats less what a skipping controller may spend
// differently from the reference: the stage timings and the units skipped.
func outcome(s core.RoundStats) core.RoundStats {
	s.Timings, s.Total, s.SkippedUnits = core.StageTimings{}, 0, 0
	return s
}

// The scenario suites FuzzServer replaced, each now a run of its seed.

// TestOrphanedAgentKeepsBudget: an agent that closes leaves devices that
// still enforce its last caps; with health clocks off or on, DPS must
// not deal those watts away.
func TestOrphanedAgentKeepsBudget(t *testing.T) {
	for _, health := range []string{"off", "on"} {
		t.Run("health="+health, func(t *testing.T) { runServerSeed(t, "orphaned-agent/health="+health) })
	}
}

func TestEndToEndOverPipe(t *testing.T)              { runServerSeed(t, "end-to-end") }
func TestUnitRangeFreedAfterDisconnect(t *testing.T) { runServerSeed(t, "range-freed") }
func TestBatchDeltaEndToEnd(t *testing.T)            { runServerSeed(t, "delta-end-to-end") }
func TestBatchRefreshEvery(t *testing.T)             { runServerSeed(t, "refresh-every") }
func TestHealthLifecycle(t *testing.T)               { runServerSeed(t, "health-lifecycle") }
func TestBatchHealthClock(t *testing.T)              { runServerSeed(t, "batch-health-clock") }
func TestChaosDeterministicKillRestart(t *testing.T) { runServerSeed(t, "kill-restart") }
func TestFailedPushPinsAgent(t *testing.T)           { runServerSeed(t, "push-fail") }
func TestChaosKillRestore(t *testing.T)              { runServerSeed(t, "kill-restore") }
func TestChaosStandbyTakeover(t *testing.T)          { runServerSeed(t, "standby-takeover") }
func TestBatchDeltaEquivalence(t *testing.T)         { runServerSeed(t, "batch-delta") }
func TestChaosWallClock(t *testing.T)                { runServerSeed(t, "chaos") }

// TestSanitizerRejectsGarbageReadings: a unit reporting garbage goes
// stale whether the garbage varies or stays one value.
func TestSanitizerRejectsGarbageReadings(t *testing.T) {
	runServerSeed(t, "garbage")
	runServerSeed(t, "constant-garbage")
}

func TestStandbyReplayMatchesPrimary(t *testing.T) {
	t.Run("register", func(t *testing.T) { runServerSeed(t, "standby-replay") })
}

func TestTakeoverFirstRoundIsSparse(t *testing.T) {
	for _, mode := range []string{"restore", "takeover"} {
		t.Run(mode, func(t *testing.T) { runServerSeed(t, "takeover-sparse/"+mode) })
	}
}

// TestSparseRoundsDaemonEquivalence runs its seed, then reads the sparse
// counters off /status: the round cache carries them too.
func TestSparseRoundsDaemonEquivalence(t *testing.T) {
	r := runServerSeed(t, "sparse-rounds")
	if st := r.primary.Snapshot(); st.DirtyUnits == 0 || st.DirtyFrac <= 0 || st.DirtyFrac > 1 {
		t.Errorf("status sparse counters unpopulated: dirty=%d frac=%v", st.DirtyUnits, st.DirtyFrac)
	}
}
