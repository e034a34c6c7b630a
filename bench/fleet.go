package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dps/internal/core"
	"dps/internal/daemon"
	"dps/internal/power"
	"dps/internal/proto"
	"dps/internal/rapl"
	"dps/internal/snapshot"
	"dps/internal/telemetry"
	"dps/internal/watch"
)

// dT is the virtual decision interval handed to ReportOnce and DecideOnce.
// Nothing sleeps: a round takes as long as its work does.
const dT = power.Seconds(1)

// buildServer constructs a controller exactly the way cmd/dpsd does from a
// -config file: LoadFileConfig → BuildManager → ApplyKnobs → NewServer.
// Paths that must be writable (black box, snapshot file) are pointed into
// tmp, everything else is what the committed JSON says.
func buildServer(configPath, tmp string) (daemon.FileConfig, *core.DPS, *daemon.Server, error) {
	fc, err := daemon.LoadFileConfig(configPath)
	if err != nil {
		return fc, nil, nil, err
	}
	if fc.BlackboxPath != "" {
		fc.BlackboxPath = filepath.Join(tmp, "blackbox")
	}
	if fc.SnapshotPath != "" {
		fc.SnapshotPath = filepath.Join(tmp, "state.dps")
	}
	mgr, err := fc.BuildManager()
	if err != nil {
		return fc, nil, nil, err
	}
	d, ok := mgr.(*core.DPS)
	if !ok {
		return fc, nil, nil, fmt.Errorf("%s: policy %q is not the DPS controller", configPath, fc.Policy)
	}
	var cfg daemon.ServerConfig
	fc.ApplyKnobs(&cfg)
	cfg.Manager = mgr
	cfg.Units = fc.Units
	cfg.Interval = fc.Interval()
	cfg.WatchRules = fc.WatchRules
	srv, err := daemon.NewServer(cfg)
	return fc, d, srv, err
}

// countConn counts the bytes an agent connection carries in each direction.
// It is the net.Conn handed to Agent.Handshake; only the driver goroutine
// uses it.
type countConn struct {
	net.Conn
	up, down *uint64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	*c.down += uint64(n)
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	*c.up += uint64(n)
	return n, err
}

// doorbell is how the single driver goroutine waits for the server's
// connection handlers under GOMAXPROCS(1) without idling on a timer. A bare
// Gosched loop starves the network poller (the spinning goroutine is always
// runnable, so the scheduler never polls) and time.Sleep polling costs a
// millisecond per wait. Ringing parks the driver on a channel fed by a helper
// goroutine blocked in Read on a loopback socket: with nothing runnable the
// scheduler must poll the network, which queues the helper and every handler
// whose socket has data in one go.
type doorbell struct {
	tx, rx net.Conn
	ch     chan struct{}
	exited chan struct{}
	one    [1]byte

	rings, fallbacks uint64
}

// spinLimit is how many yields a wait makes (about 0.2 s) before it concedes
// that the data is still in the kernel and sleeps. The one case seen while
// sizing: nodes1k bursts 1024 frames onto loopback, the kernel's backlog
// queue (net.core.netdev_max_backlog, 1000) drops one, and TCP retransmits
// it 200 ms later. Such a round is an outlier the medians ignore; the count
// is reported as loop.doorbell_timer_fallbacks.
const spinLimit = 200000

func newDoorbell() (*doorbell, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	tx, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	rx, err := ln.Accept()
	if err != nil {
		tx.Close()
		return nil, err
	}
	b := &doorbell{tx: tx, rx: rx, ch: make(chan struct{}), exited: make(chan struct{})}
	go func() {
		defer close(b.exited)
		var buf [1]byte
		for {
			if _, err := b.rx.Read(buf[:]); err != nil {
				return
			}
			b.ch <- struct{}{}
		}
	}()
	return b, nil
}

func (b *doorbell) ring() {
	b.rings++
	if _, err := b.tx.Write(b.one[:]); err != nil {
		panic(fmt.Sprintf("bench: doorbell write: %v", err))
	}
	<-b.ch
}

// wait returns once done reports true.
func (b *doorbell) wait(done func() bool) {
	if done() {
		return
	}
	b.ring()
	for spins := 1; !done(); spins++ {
		runtime.Gosched()
		if spins%200 == 0 {
			b.ring()
		}
		if spins >= spinLimit {
			b.fallbacks++
			time.Sleep(100 * time.Microsecond)
		}
	}
}

func (b *doorbell) close() {
	b.tx.Close()
	b.rx.Close()
	<-b.exited
}

// fleet is one running system under test: the server, its agents over
// loopback TCP, the devices under them and the generator feeding those.
type fleet struct {
	spec   spec
	tmp    string
	config string

	dps *core.DPS
	srv *daemon.Server

	ln       net.Listener
	handlers sync.WaitGroup
	agents   []*daemon.Agent
	conns    []net.Conn // the agents' ends
	devs     []device
	gen      *generator
	bell     *doorbell
	ops      *opsState

	upBytes, downBytes uint64

	// scratch exportImage reuses
	imageState snapshot.State
	imageBuf   []byte

	// Public registry handles the loop synchronises on and reads.
	frames       [3]*telemetry.Counter // report, batch, heartbeat
	records      *telemetry.Counter
	e2e          *telemetry.Histogram
	decideHist   *telemetry.Histogram
	stageHist    [4]*telemetry.Histogram // kalman, stateless, priority, readjust
	dirtyUnits   *telemetry.Gauge
	skipUnits    *telemetry.Gauge
	snapDur      *telemetry.Histogram
	bbBytes      *telemetry.Counter
	mustBeZero   map[string]*telemetry.Counter
	budgetClamps *telemetry.Counter
	agentCtr     []agentCounters
	budgetTotal  float64

	rounds   uint64 // rounds decided so far (warm-up included)
	failed   uint64
	failures []string
	digest   uint64 // FNV-1a over every digested round's caps in deciwatts
}

type agentCounters struct {
	suppressed, heartbeats, spans *telemetry.Counter
}

var stageNames = [4]string{"kalman", "stateless", "priority", "readjust"}

func label(k, v string) telemetry.Label { return telemetry.Label{Key: k, Value: v} }

// newFleet builds the server, connects and handshakes every agent.
func newFleet(s spec, dir string, seed int64, tmp string) (f *fleet, err error) {
	f = &fleet{spec: s, tmp: tmp, config: filepath.Join(dir, "configs", s.config), digest: fnvOffset}
	defer func() {
		if err != nil {
			f.close()
			f = nil
		}
	}()
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	fc, d, srv, err := buildServer(f.config, tmp)
	if err != nil {
		return nil, err
	}
	if fc.Units != s.units {
		return nil, fmt.Errorf("%s declares %d units, workload %s needs %d", f.config, fc.Units, s.name, s.units)
	}
	f.dps, f.srv = d, srv
	f.budgetTotal = float64(d.Budget().Total)

	reg := srv.Telemetry()
	for i, kind := range []string{"report", "batch", "heartbeat"} {
		f.frames[i] = reg.Counter("dps_ingest_frames_total", "", label("kind", kind))
	}
	f.records = reg.Counter("dps_ingest_records_total", "")
	f.e2e = reg.Histogram("dps_e2e_latency_seconds", "", nil)
	f.decideHist = reg.Histogram("dps_decide_seconds", "", nil)
	for i, st := range stageNames {
		f.stageHist[i] = reg.Histogram("dps_stage_seconds", "", nil, label("stage", st))
	}
	f.dirtyUnits = reg.Gauge("dps_decide_dirty_units", "")
	f.skipUnits = reg.Gauge("dps_decide_skipped_units", "")
	f.snapDur = reg.Histogram("dps_snapshot_duration_seconds", "", nil)
	f.bbBytes = reg.Counter("dps_blackbox_bytes_total", "")
	f.mustBeZero = map[string]*telemetry.Counter{}
	for _, name := range []string{"dps_push_errors_total", "dps_server_bad_readings_total",
		"dps_blackbox_dropped_rounds_total"} {
		f.mustBeZero[name] = reg.Counter(name, "")
	}
	// Reported, not gated: at 16k units the controller's pre-clamp drift
	// tolerance (1e-6 W absolute) is inside float64 summation error, so the
	// counter ticks on rounds whose delivered caps are fine (README,
	// pitfalls). The gate checks the delivered sum itself, every round.
	f.budgetClamps = reg.Counter("dps_budget_violations_total", "")

	if f.bell, err = newDoorbell(); err != nil {
		return nil, err
	}
	if f.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	f.handlers.Add(1)
	go func() {
		defer f.handlers.Done()
		for {
			c, err := f.ln.Accept()
			if err != nil {
				return
			}
			f.handlers.Add(1)
			go func() {
				defer f.handlers.Done()
				// Handle returns when the fleet closes the server; its
				// error then only says the connection went away.
				_ = f.srv.Handle(c)
			}()
		}
	}()

	b := d.Budget()
	f.devs = make([]device, s.units)
	for u := range f.devs {
		f.devs[u] = device{cap: b.UnitMax, min: b.UnitMin, max: b.UnitMax}
	}
	f.gen = newGenerator(s, seed)
	// Give every meter a first interval to average over before priming.
	f.gen.step(f.devs)

	for a := 0; a < s.agents(); a++ {
		devs := make([]rapl.Device, s.unitsPerAgent)
		for i := range devs {
			devs[i] = &f.devs[a*s.unitsPerAgent+i]
		}
		ag, err := daemon.NewAgent(daemon.AgentConfig{
			FirstUnit: power.UnitID(a * s.unitsPerAgent),
			Devices:   devs,
			Interval:  fc.Interval(),
			ApplyEcho: true,
			Batch:     true,
			TraceCtx:  true,
			Trace:     s.ops,
		})
		if err != nil {
			return nil, err
		}
		c, err := net.Dial("tcp", f.ln.Addr().String())
		if err != nil {
			return nil, err
		}
		f.conns = append(f.conns, c)
		if err := ag.Handshake(&countConn{Conn: c, up: &f.upBytes, down: &f.downBytes}); err != nil {
			return nil, err
		}
		f.agents = append(f.agents, ag)
		areg := ag.Telemetry()
		f.agentCtr = append(f.agentCtr, agentCounters{
			suppressed: areg.Counter("dps_agent_suppressed_readings_total", ""),
			heartbeats: areg.Counter("dps_agent_heartbeats_total", ""),
			spans:      areg.Counter("dps_agent_trace_spans_total", ""),
		})
	}
	f.bell.wait(func() bool { return f.srv.Connected() == len(f.agents) })

	if s.ops {
		if f.ops, err = newOpsState(f); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) ingestFrames() uint64 {
	return f.frames[0].Value() + f.frames[1].Value() + f.frames[2].Value()
}

// round runs one closed, lock-step decision round: generator → every agent
// reports → the server has ingested every frame → DecideOnce (pushes caps) →
// every agent applies and echoes → the server has observed every echo.
// It returns the round's wall time, first meter read to last echo observed;
// with tr nil those two timestamps are the only ones taken.
func (f *fleet) round(tr *tracer) (time.Duration, error) {
	var harness0 time.Time
	if tr != nil {
		tr.begin(f)
		harness0 = time.Now()
	}
	f.gen.step(f.devs)
	f.rounds++
	want := f.rounds * uint64(len(f.agents))

	start := time.Now()
	if tr != nil {
		tr.harness(start.Sub(harness0))
	}
	t := start
	for a, ag := range f.agents {
		if err := ag.ReportOnce(dT); err != nil {
			return 0, err
		}
		if tr != nil {
			t = tr.span(spanReport, a, t)
		}
	}
	f.bell.wait(func() bool { return f.ingestFrames() >= want })
	if tr != nil {
		t = tr.span(spanIngestWait, -1, t)
	}
	caps, err := f.srv.DecideOnce(dT)
	if err != nil {
		return 0, err
	}
	if tr != nil {
		t = tr.span(spanDecideOnce, -1, t)
	}
	for a, ag := range f.agents {
		if err := ag.ReceiveCaps(); err != nil {
			return 0, err
		}
		if tr != nil {
			t = tr.span(spanApply, a, t)
		}
	}
	f.bell.wait(func() bool { return f.e2e.Count() >= want })
	end := time.Now()
	if tr != nil {
		tr.spanAt(spanEchoWait, -1, t, end)
		tr.spanAt(spanRound, -1, start, end)
		tr.core(f)
	}

	f.check(caps)
	if tr != nil {
		tr.harness(time.Since(end))
		tr.endRound()
	}
	if f.ops != nil && int(f.rounds) > f.spec.warmup-opsWarmupRounds {
		f.ops.afterRound(f)
	}
	return end.Sub(start), nil
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (f *fleet) fail(format string, args ...any) {
	f.failed++
	if len(f.failures) < 8 {
		f.failures = append(f.failures, fmt.Sprintf("round %d: ", f.rounds)+fmt.Sprintf(format, args...))
	}
}

// check is the per-round correctness gate: the budget holds, every cap is
// inside the hardware range, every agent applied exactly one batch and each
// device is programmed with the decided cap to the deciwatt. It also folds
// the round's caps into the digest.
func (f *fleet) check(caps power.Vector) {
	b := f.dps.Budget()
	sum := 0.0
	h := f.digest
	for u, c := range caps {
		sum += float64(c)
		if c < b.UnitMin || c > b.UnitMax {
			f.fail("unit %d cap %v outside [%v,%v]", u, c, b.UnitMin, b.UnitMax)
		}
		dw := proto.ToDeciwatts(c)
		if proto.ToDeciwatts(f.devs[u].cap) != dw {
			f.fail("unit %d programmed %v, decided %v", u, f.devs[u].cap, c)
		}
		h = (h ^ uint64(dw&0xff)) * fnvPrime
		h = (h ^ uint64(dw>>8)) * fnvPrime
	}
	f.digest = h
	if sum > f.budgetTotal+1e-3 {
		f.fail("cap sum %.4f exceeds budget %.4f", sum, f.budgetTotal)
	}
	for a, ag := range f.agents {
		if ag.Applied() != f.rounds {
			f.fail("agent %d applied %d cap batches after %d rounds", a, ag.Applied(), f.rounds)
		}
	}
}

// checkExit is the end-of-run half of the gate: the server's own
// should-stay-zero counters and the watchdog agree nothing went wrong.
func (f *fleet) checkExit() {
	for name, c := range f.mustBeZero {
		if v := c.Value(); v != 0 {
			f.fail("%s = %d, want 0", name, v)
		}
	}
	for _, a := range f.srv.Watcher().Alerts() {
		// provenance_coverage is reported, not gated: at 16k units it
		// fires and resolves a few dozen times a run (a cap moved with no
		// recorded reason), which is the controller's to fix, not a wrong
		// cap (README, pitfalls).
		if a.State == watch.StateFiring && a.Rule != watch.RuleProvenanceCoverage {
			f.fail("watchdog alert %s firing: %s", a.Rule, a.Message)
		}
	}
}

// close tears the system down and waits for every goroutine it started.
func (f *fleet) close() error {
	var errs []error
	if f.ops != nil {
		f.ops.close()
	}
	if f.ln != nil {
		f.ln.Close()
	}
	if f.srv != nil {
		// Closing the server drops its end of every agent connection,
		// which ends the handlers.
		if err := f.srv.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	for _, c := range f.conns {
		c.Close()
	}
	f.handlers.Wait()
	if f.bell != nil {
		f.bell.close()
	}
	if f.dps != nil {
		if err := f.dps.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := os.RemoveAll(f.tmp); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
