// Package daemon implements the deployed form of DPS (paper §4.3): a
// controller server on a central node and one agent per compute node. The
// agent reads socket power through RAPL and reports it over the paper's
// 3-byte-per-unit protocol; the server runs the control system once per
// decision interval and pushes new caps back; the agent programs them.
//
// The pieces are factored so tests can drive them deterministically
// without wall-clock time: Server.Handle serves one connection,
// Server.DecideOnce runs one decision round, Agent.ReportOnce and
// Agent.ReceiveCaps perform one half-step each. Serve and Run compose
// those with real listeners and tickers.
package daemon

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dps/internal/blackbox"
	"dps/internal/core"
	"dps/internal/engine"
	"dps/internal/power"
	"dps/internal/proto"
	"dps/internal/snapshot"
	"dps/internal/telemetry"
	"dps/internal/telemetry/series"
	"dps/internal/trace"
	"dps/internal/watch"
)

// ServerConfig configures the controller daemon.
type ServerConfig struct {
	// Manager is the decision policy (normally a core.DPS). The server is
	// its only caller, from the control loop goroutine.
	Manager core.Manager
	// Units is the total number of power-capping units across all nodes.
	Units int
	// Interval is the decision loop period (paper: one second).
	Interval time.Duration
	// Logf, if non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// FlightRecorderSize is the number of decision rounds the flight
	// recorder retains for GET /debug/rounds. Zero selects
	// telemetry.DefaultFlightRecorderSize.
	FlightRecorderSize int

	// StaleAfter marks a unit stale once no accepted reading has arrived
	// for this long: its cap freezes at the last delivered value until the
	// agent reports again. Zero (with DeadAfter zero) turns the clocks off;
	// a unit no live agent answers for (see gone) is stale regardless.
	StaleAfter time.Duration
	// DeadAfter marks a unit dead after this long without an accepted
	// reading. A dead unit's budget stays reserved at its last delivered
	// cap: the agent (or firmware) is still enforcing that cap, so
	// redistributing the watts would over-commit the physical budget.
	DeadAfter time.Duration
	// ReadIdleTimeout bounds how long the server waits on a connection
	// read (handshake or report batch). A connection that stays silent
	// past the deadline is reaped: closed and its units released for a
	// fresh claim. Zero disables the deadline.
	ReadIdleTimeout time.Duration
	// MaxReading is the sanity ceiling on inbound power reports; readings
	// above it (or NaN/Inf/negative — impossible on the wire, but the
	// boundary defends regardless of transport) are rejected before they
	// reach the filter and do not refresh the unit's staleness clock.
	// Zero selects twice the budget's per-unit maximum.
	MaxReading power.Watts
	// DeltaEpsilon is the report-suppression band advertised to agents in
	// the handshake ack: an agent doing delta suppression may withhold a
	// unit's report while the reading stays within this many watts of the
	// last value it sent (quantized to deciwatts on the wire). Zero means
	// "report exact changes only" — an agent still suppresses byte-identical
	// readings but any movement is reported.
	DeltaEpsilon power.Watts

	// TraceEnabled starts the span recorder on. The recorder always
	// exists (GET /debug/trace always mounts, and it can be enabled at
	// runtime via Trace().SetEnabled); this only sets its initial state.
	// Off, tracing costs one atomic load per instrumented site.
	TraceEnabled bool
	// TraceSpans is the span ring capacity. Zero selects
	// trace.DefaultSpanCapacity.
	TraceSpans int

	// SeriesEnabled starts the embedded metric-history sampler: a
	// goroutine beside (never inside) the decision loop scrapes the
	// registry into a fixed-memory series store served at
	// GET /debug/series. Off, no store exists and nothing is scraped.
	SeriesEnabled bool
	// WatchEnabled turns on the watchdog: built-in invariant audits fed
	// from every decision round plus the WatchRules evaluated after every
	// sampler scrape. Off, the watcher is nil and ObserveRound calls on it
	// are no-ops.
	WatchEnabled bool
	// WatchRules are the configured alert rules. Rules reference the
	// series store, so setting any implies a store and sampler even when
	// SeriesEnabled is false.
	WatchRules []watch.Rule

	// High-availability state continuity (DESIGN.md §14). SnapshotPath,
	// when set, makes the daemon write its full versioned state image to
	// this file every SnapshotEvery rounds and one final time on Close.
	// StandbyOf marks this daemon a warm standby of the primary at that
	// address: RunStandby subscribes to the primary's replication stream
	// and serves agents only after takeover. (Restoring a snapshot file at
	// boot is a call, RestoreFromSnapshot, not a setting: the caller
	// decides when the clock source is in place.)
	SnapshotPath  string
	SnapshotEvery int
	StandbyOf     string

	// BlackboxPath, when set, enables the persistent black-box flight
	// recorder (DESIGN.md §15): every completed decision round is
	// appended to a segmented on-disk ring under this directory, off the
	// decide path, so the last BlackboxRounds rounds survive a crash,
	// kill -9, or standby takeover and can be decoded offline with
	// `dpsctl blackbox dump`. BlackboxRounds bounds the ring's retention
	// (blackbox.DefaultRounds when 0).
	BlackboxPath   string
	BlackboxRounds int
}

// DefaultSnapshotEvery is the default number of decision rounds between
// snapshot file writes when SnapshotPath is set.
const DefaultSnapshotEvery = 10

// DefaultSnapshotMaxAge bounds how old (by its own save stamp) a snapshot
// file may be and still be restored; older files are rejected as stale.
// Deliberately not a setting: the boot path must be protected from caps
// and health clocks from another epoch.
const DefaultSnapshotMaxAge = 24 * time.Hour

func (c ServerConfig) validate() error {
	switch {
	case c.Manager == nil:
		return errors.New("daemon: ServerConfig.Manager is nil")
	case c.Manager.Budget().UnitMax > proto.FromDeciwatts(proto.MaxDeciwatts):
		// A larger cap would be clamped on the wire without notice.
		return fmt.Errorf("daemon: unit max %v W exceeds the wire's %v W cap ceiling",
			c.Manager.Budget().UnitMax, proto.FromDeciwatts(proto.MaxDeciwatts))
	case c.Units <= 0:
		return fmt.Errorf("daemon: non-positive unit count %d", c.Units)
	case c.Units > 0x10000:
		return fmt.Errorf("daemon: %d units exceed the protocol's addressable space", c.Units)
	case c.Interval <= 0:
		return fmt.Errorf("daemon: non-positive interval %v", c.Interval)
	case c.DeltaEpsilon < 0 || math.IsNaN(float64(c.DeltaEpsilon)) || math.IsInf(float64(c.DeltaEpsilon), 0):
		return fmt.Errorf("daemon: invalid delta epsilon %v", c.DeltaEpsilon)
	case c.SnapshotEvery < 0:
		return fmt.Errorf("daemon: negative snapshot-every %d", c.SnapshotEvery)
	case c.BlackboxRounds < 0:
		return fmt.Errorf("daemon: negative blackbox-rounds %d", c.BlackboxRounds)
	}
	for _, r := range c.WatchRules {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("daemon: %w", err)
		}
	}
	return nil
}

// Server is the DPS controller daemon.
type Server struct {
	cfg ServerConfig
	// dps is cfg.Manager when that is the DPS controller (tracing, state
	// export and budget moves exist only there), nil for any other policy.
	// Asserted once, in NewServer; the engine asserts its own.
	dps *core.DPS

	tel      *telemetry.Registry
	recorder *telemetry.FlightRecorder
	tracer   *trace.Recorder
	metrics  serverMetrics
	now      func() time.Time // stubbed in tests for deterministic records

	// store/sampler exist when SeriesEnabled or any watch rule needs the
	// history; watcher exists when WatchEnabled. All are read-only after
	// NewServer, and all run off the decision hot path.
	store   *series.Store
	sampler *series.Sampler
	watcher *watch.Watcher

	// The server's shared state is split across two locks so the ingest
	// plane never contends with decision bookkeeping. Lock order: a
	// goroutine holding mu may take imu (register does); never the
	// reverse.
	//
	// imu guards the ingest plane — the front buffer connection
	// goroutines write every report frame into, and the staleness clocks
	// those frames refresh. The decision loop holds it only long enough
	// to copy the front buffer into its private snapshot (snapBuf) and
	// classify health, so a decision round blocks ingest for one memcpy,
	// and ingest never waits on conns/round bookkeeping.
	imu      sync.Mutex
	readings power.Vector
	// dirty marks the units whose reading was rewritten since the last
	// decision snapshot — the ingest half of the controller's dirty-set
	// contract (a clear bit guarantees the unit's reading is byte-identical
	// to the previous snapshot). Maintained unconditionally: marking is one
	// word-OR per accepted record, and managers other than DPS simply
	// ignore the mask.
	dirty *core.DirtyMask
	// lastReport is the per-unit staleness clock: the time of the last
	// accepted (sanitized) reading or covering heartbeat, refreshed on
	// (re-)registration so a re-handshaken agent rejoins fresh within one
	// round. Nil while the clocks are off.
	lastReport []time.Time
	// refused marks (bit u&63 of word u>>6) the units whose latest record
	// the sanitizer refused, until one is accepted: omissions and
	// heartbeats leave their clocks alone, so a meter wedged on one
	// garbage value, which a delta agent sends once and then withholds,
	// goes stale instead of staying fresh at its last good reading. Nil
	// while the clocks are off.
	refused []uint64
	// gone marks (bit u&63 of word u>>6) the units no live agent answers
	// for — their connection closed, was reaped or failed a push, or the
	// server was restored — which classify at least stale until an agent
	// registers for them: their devices still hold the cap last pushed.
	gone []uint64

	// snapBuf, dirtyBuf and healthBuf are the decision loop's private back
	// buffers (double buffering): DecideOnce is never concurrent with
	// itself, so they need no lock once the imu-guarded copy completes.
	// pushedW is its mask of the units whose agent took the round's push.
	snapBuf   power.Vector
	dirtyBuf  *core.DirtyMask
	healthBuf []core.UnitHealth
	pushedW   []uint64

	// eng runs every round, served or replayed. The decision goroutine
	// writes its Prev and Enforced caches under mu and reads them without.
	eng *engine.Engine

	// mu guards the control plane: connections, ownership, and the
	// per-round caches. (Everything else /status shows of the last round
	// it reads from the flight recorder's newest record.)
	mu sync.Mutex
	// health is the per-unit state machine output of the previous round,
	// kept to detect transitions.
	health []core.UnitHealth
	owner  []*serverConn // per-unit owning connection, nil if unclaimed
	// conns is the live agent connections ordered by FirstUnit, copy on
	// write: register and unregister install a fresh slice, so a header
	// taken under mu may be walked after the lock is dropped.
	conns  []*serverConn
	closed bool
	rounds atomic.Uint64 // advanced under mu; loaded lock-free by ingest tracing

	// budgetW is the float64 bits of the budget total the controller
	// holds, republished under roundMu wherever it may move (a round, a
	// restore, a followed round) so /status never reads the controller.
	budgetW atomic.Uint64
	// configuredBudget is the manager's budget total at NewServer, which a
	// restored image does not override, and unitMax its per-unit ceiling,
	// which connection handlers sanitize readings against.
	configuredBudget, unitMax power.Watts

	// statusSpare is a /status copy whose columns the next request reuses.
	statusSpare atomic.Pointer[statusView]

	// inheritedRounds is how many of the round counter's rounds were run
	// by a previous process (restored from a snapshot or inherited at
	// standby takeover): uptime_rounds = rounds - inheritedRounds, while
	// state_age_rounds = rounds. Zero on a fresh boot.
	inheritedRounds atomic.Uint64

	// roundMu is held across one whole round — DecideOnce's body on a
	// serving daemon, one replayed round on a following standby — so that
	// whoever takes it sees the controller and the engine between rounds:
	// Close exports the final image under it. Uncontended but for
	// that. Lock order: roundMu → snapMu → mu → imu.
	roundMu sync.Mutex
	// followStamp is, on a following standby, the primary-clock time of
	// the state it holds (the save stamp of the last frame applied). The
	// staleness clocks stay in the primary's time base until takeover
	// shifts them onto the local clock by now − followStamp. Guarded by
	// roundMu.
	followStamp time.Time

	// The snapshot/replication plane (DESIGN.md §14), guarded by snapMu.
	// Only the decision loop (via replicateRound), Close and replica
	// (un)registration take snapMu, so neither ingest nor cap pushes ever
	// contend on it. All the buffers are reused round over round — a warm
	// replication round allocates nothing.
	snapMu    sync.Mutex
	snapState snapshot.State      // reused export target
	snapEnc   []byte              // image encode buffer
	roundIn   snapshot.RoundInput // the round's input record (scratch owner)
	inputBuf  []byte              // FrameDelta payload scratch
	replicas  map[*replicaConn]struct{}
	// lastFileRound is the round of the most recent snapshot file write.
	lastFileRound uint64
	// Black-box flight recorder (DESIGN.md §15): bb is the on-disk round
	// ring, nil when BlackboxPath is unset; it encodes straight from the
	// round record. bbClosed stops appends racing the final flush in Close.
	bb       *blackbox.Writer
	bbClosed bool

	// dial is the standby's outbound connector toward its primary; tests
	// override it to interpose fault injection. Nil means net.Dial.
	dial func(network, addr string) (net.Conn, error)
}

// replicaConn is one warm-standby subscriber. synced flips once the full
// snapshot image went out; until then the replica receives no round
// inputs (inputs for a state it never saw would be garbage).
type replicaConn struct {
	conn   net.Conn
	synced bool
	// hdr is the frame-header scratch: heap storage retained with the
	// connection, so a per-round frame write never allocates.
	hdr [proto.StateFrameHeaderSize]byte
}

// writeFrame sends one state frame on the replica connection, staging
// the header through the retained scratch.
func (rc *replicaConn) writeFrame(frame byte, payload []byte) error {
	var err error
	rc.hdr, err = proto.StateFrameHeader(frame, len(payload))
	if err != nil {
		return err
	}
	if _, err := rc.conn.Write(rc.hdr[:]); err != nil {
		return err
	}
	_, err = rc.conn.Write(payload)
	return err
}

// NewServer builds a controller daemon around a manager.
func NewServer(cfg ServerConfig) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	tracer := trace.NewRecorder(cfg.TraceSpans)
	tracer.SetEnabled(cfg.TraceEnabled)
	dps, _ := cfg.Manager.(*core.DPS)
	if dps != nil {
		dps.SetTracer(tracer)
	}
	recorder := telemetry.NewFlightRecorder(cfg.FlightRecorderSize)
	s := &Server{
		cfg:      cfg,
		dps:      dps,
		tel:      reg,
		recorder: recorder,
		tracer:   tracer,
		metrics:  newServerMetrics(reg, recorder, cfg, dps != nil),
		now:      time.Now,
		readings: make(power.Vector, cfg.Units),
		dirty:    core.NewDirtyMask(cfg.Units),
		snapBuf:  make(power.Vector, cfg.Units),
		dirtyBuf: core.NewDirtyMask(cfg.Units),
		pushedW:  make([]uint64, (cfg.Units+63)/64),
		gone:     make([]uint64, (cfg.Units+63)/64),
		eng:      engine.New(cfg.Manager),
		owner:    make([]*serverConn, cfg.Units),
		replicas: make(map[*replicaConn]struct{}),
	}
	s.eng.Clock = func() time.Time { return s.now() }
	s.health, s.healthBuf = make([]core.UnitHealth, cfg.Units), make([]core.UnitHealth, cfg.Units)
	b := cfg.Manager.Budget()
	s.configuredBudget, s.unitMax = b.Total, b.UnitMax
	s.noteBudget()
	if cfg.StaleAfter > 0 || cfg.DeadAfter > 0 { // staleness clocks on
		s.lastReport = make([]time.Time, cfg.Units)
		s.refused = make([]uint64, (cfg.Units+63)/64)
		// Units start with a full staleness clock: a unit that never
		// registers an agent drifts to stale/dead on its own, reserved at
		// its initial cap.
		start := time.Now()
		for u := range s.lastReport {
			s.lastReport[u] = start
		}
	}
	// Configured watch rules read the series store, so they imply one even
	// when the operator didn't ask for /debug/series explicitly.
	if cfg.SeriesEnabled || (cfg.WatchEnabled && len(cfg.WatchRules) > 0) {
		// One raw sample per decision round.
		s.store = series.NewStore(series.Config{RawInterval: cfg.Interval})
		s.sampler = series.NewSampler(reg, s.store)
	}
	if cfg.WatchEnabled {
		s.watcher = watch.New(watch.Config{
			Rules:    cfg.WatchRules,
			Store:    s.store,
			Registry: reg,
			Logf:     cfg.Logf,
		})
	}
	if cfg.BlackboxPath != "" {
		bb, err := blackbox.Open(cfg.BlackboxPath, cfg.BlackboxRounds)
		if err != nil {
			return nil, fmt.Errorf("daemon: opening black box: %w", err)
		}
		s.bb = bb
	}
	return s, nil
}

// noteBudget republishes the controller's budget total for /status.
// Caller holds roundMu, or is NewServer.
func (s *Server) noteBudget() {
	s.budgetW.Store(math.Float64bits(float64(s.cfg.Manager.Budget().Total)))
}

// ResetHealthClocks restamps every unit's staleness clock with the
// server's clock source. Tests that stub the clock call this after the
// stub is installed so construction-time stamps don't skew the first
// round.
func (s *Server) ResetHealthClocks() {
	s.imu.Lock()
	defer s.imu.Unlock()
	now := s.now()
	for u := range s.lastReport {
		s.lastReport[u] = now
	}
}

// Telemetry returns the server's metrics registry, for serving on
// /metrics or folding into a larger exposition.
func (s *Server) Telemetry() *telemetry.Registry { return s.tel }

// FlightRecorder returns the decision flight recorder backing
// GET /debug/rounds.
func (s *Server) FlightRecorder() *telemetry.FlightRecorder { return s.recorder }

// Trace returns the span recorder backing GET /debug/trace. It exists
// even when tracing started disabled, so an operator can flip it on at
// runtime (Trace().SetEnabled(true)) without restarting the daemon.
func (s *Server) Trace() *trace.Recorder { return s.tracer }

// Series returns the embedded metric-history store backing
// GET /debug/series, nil when neither SeriesEnabled nor a watch rule
// asked for one.
func (s *Server) Series() *series.Store { return s.store }

// Watcher returns the alerting engine backing GET /alerts, nil when
// WatchEnabled is false (watch.Watcher methods are nil-safe).
func (s *Server) Watcher() *watch.Watcher { return s.watcher }

// SampleOnce performs one sampler scrape plus one watch-rule evaluation
// at the server clock's current time — the unit Serve's sampler loop runs
// every scrape interval, exported so tests and embedders can drive it
// deterministically. A no-op when the series store is disabled.
func (s *Server) SampleOnce() {
	if s.sampler == nil {
		return
	}
	now := s.now()
	s.sampler.SampleOnce(now)
	s.watcher.Evaluate(now)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Connected returns the number of live agent connections.
func (s *Server) Connected() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Rounds returns the number of completed decision rounds.
func (s *Server) Rounds() uint64 {
	return s.rounds.Load()
}

// Readings returns a copy of the latest per-unit power reports.
func (s *Server) Readings() power.Vector {
	s.imu.Lock()
	defer s.imu.Unlock()
	return s.readings.Clone()
}

// Serve accepts agent connections on l and runs the decision loop until
// Close. It blocks. Push errors to individual agents are logged, not
// fatal — a dead agent's units coast on their last caps, exactly like a
// real cluster losing a node.
func (s *Server) Serve(l net.Listener) error {
	var wg sync.WaitGroup
	defer wg.Wait()

	// Close unblocks Accept by closing the listener.
	done := make(chan struct{})
	defer close(done)
	every := func(d time.Duration, fn func()) {
		ticker := time.NewTicker(d)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				fn()
			}
		}
	}
	go every(s.cfg.Interval, func() {
		if _, err := s.DecideOnce(power.Seconds(s.cfg.Interval.Seconds())); err != nil {
			s.logf("daemon: decision round: %v", err)
		}
	})
	if s.sampler != nil {
		// The sampler gets its own goroutine and ticker: scraping the
		// registry and evaluating watch rules never shares the decision
		// loop's schedule, so self-monitoring cannot delay a round.
		go every(s.store.Config().RawInterval, s.SampleOnce)
	}

	for {
		conn, err := l.Accept()
		if err != nil {
			if s.isClosed() {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Handle(conn); err != nil {
				s.logf("daemon: connection: %v", err)
			}
		}()
	}
}

// Close marks the server closed, drops all agent and replica
// connections, and — when SnapshotPath is configured — waits out a round
// in flight, exports the state as it then stands and writes it as the
// final snapshot, so a graceful shutdown loses no completed round. The
// caller should also close the listener passed to Serve.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := s.conns
	s.mu.Unlock()
	// Before roundMu: a round blocked pushing to one of these holds it.
	for _, sc := range conns {
		sc.conn.Close()
	}
	s.roundMu.Lock()
	defer s.roundMu.Unlock()
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	for rc := range s.replicas {
		rc.conn.Close()
		delete(s.replicas, rc)
	}
	var err error
	if s.cfg.SnapshotPath != "" {
		if round := s.rounds.Load(); round == s.inheritedRounds.Load() {
			s.logf("daemon: no completed round to snapshot on shutdown")
		} else if err = writeFileAtomic(s.cfg.SnapshotPath, s.encodeImage(round)); err != nil {
			s.logf("daemon: final snapshot: %v", err)
		} else {
			s.logf("daemon: final snapshot written to %s (%d bytes, round %d)",
				s.cfg.SnapshotPath, len(s.snapEnc), round)
		}
	}
	if s.bb != nil && !s.bbClosed {
		s.bbClosed = true
		if cerr := s.bb.Close(); cerr != nil {
			s.logf("daemon: closing black box: %v", cerr)
			if err == nil {
				err = cerr
			}
		}
	}
	return err
}
