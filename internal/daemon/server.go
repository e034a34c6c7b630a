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
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dps/internal/blackbox"
	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/proto"
	"dps/internal/snapshot"
	"dps/internal/telemetry"
	"dps/internal/telemetry/series"
	"dps/internal/trace"
	"dps/internal/version"
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
	// agent reports again. Zero (with DeadAfter zero) disables health
	// tracking entirely — every unit is fresh forever, the pre-health
	// behaviour.
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
	// DeltaEpsilon is the report-suppression band advertised to
	// batch-capable agents in the handshake ack: an agent may suppress a
	// unit's report while the reading stays within this many watts of the
	// last value it sent (quantized to deciwatts on the wire). Zero means
	// "report exact changes only" — an agent still suppresses byte-identical
	// readings but any movement is reported.
	DeltaEpsilon power.Watts
	// DisableBatchIngest rejects handshakes advertising the batch
	// capability, forcing every agent onto full per-interval report frames.
	// An escape hatch for debugging the delta plane; off by default.
	DisableBatchIngest bool
	// SparseRefreshEvery is a manager-construction input: dpsd reads it
	// when it builds a DPS controller (core.Config.SparseRefreshEvery), so
	// -sparse-refresh-every and its -sparse-rounds=false alias (period 1)
	// reach the decision engine on both the flag and the config-file
	// path. NewServer itself does not consult it — the Manager it receives
	// already embodies the choice.
	SparseRefreshEvery int

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
	// SeriesConfig sizes the series store. The zero value selects the
	// defaults, except RawInterval, which defaults to Interval (scrape
	// once per decision round).
	SeriesConfig series.Config
	// WatchEnabled turns on the watchdog: built-in invariant audits fed
	// from every decision round plus the WatchRules evaluated after every
	// sampler scrape. Off, the watcher is nil and ObserveRound calls on it
	// are no-ops.
	WatchEnabled bool
	// WatchRules are the configured alert rules. Rules reference the
	// series store, so setting any implies a store and sampler even when
	// SeriesEnabled is false.
	WatchRules []watch.Rule
	// BudgetToleranceW is the slack on the budget_conservation audit
	// (absorbs float drift from the proportional rescale). Zero selects
	// the watch package default (1e-3 W).
	BudgetToleranceW float64

	// High-availability state continuity (DESIGN.md §14). SnapshotPath,
	// when set, makes the daemon assemble its full versioned state image
	// after every decision round, write it to this file every
	// SnapshotEvery rounds, and write it one final time on Close.
	// RestoreFrom names a snapshot file for RestoreFromSnapshot (dpsd
	// calls it at boot when -restore-from is set; NewServer itself does
	// not, so callers control when the clock source is in place).
	// StandbyOf marks this daemon a warm standby of the primary at that
	// address: RunStandby subscribes to the primary's replication stream
	// and serves agents only after takeover.
	SnapshotPath  string
	SnapshotEvery int
	RestoreFrom   string
	StandbyOf     string
	// SnapshotMaxAge bounds how old (by its own save stamp) a snapshot
	// file may be and still be restored; older files are rejected as
	// stale. Zero selects DefaultSnapshotMaxAge. Deliberately not a CLI
	// knob: an operator who wants an ancient snapshot back can touch up
	// the config, but the default must protect the boot path from caps
	// and health clocks from another epoch.
	SnapshotMaxAge time.Duration

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

// DefaultSnapshotMaxAge is the default rejection threshold for restoring
// stale snapshot files.
const DefaultSnapshotMaxAge = 24 * time.Hour

func (c ServerConfig) validate() error {
	switch {
	case c.Manager == nil:
		return errors.New("daemon: ServerConfig.Manager is nil")
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
	case c.SnapshotMaxAge < 0:
		return fmt.Errorf("daemon: negative snapshot max age %v", c.SnapshotMaxAge)
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
	// round.
	lastReport []time.Time

	// snapBuf, dirtyBuf and healthBuf are the decision loop's private back
	// buffers (double buffering): DecideOnce is never concurrent with
	// itself, so they need no lock once the imu-guarded copy completes.
	snapBuf   power.Vector
	dirtyBuf  *core.DirtyMask
	healthBuf []core.UnitHealth

	// mu guards the control plane: connections, ownership, and the
	// per-round caches.
	mu       sync.Mutex
	lastCaps power.Vector // caps from the most recent decision round
	// lastPushed tracks, per unit, the cap most recently delivered to an
	// agent — what the node is actually enforcing. Degraded rounds pin
	// non-fresh units here, and the budget-reservation argument is stated
	// against this vector.
	lastPushed power.Vector
	// health is the per-unit state machine output of the previous round,
	// kept to detect transitions. Nil while health tracking is disabled.
	health []core.UnitHealth
	// lastPrio and lastRestored cache the DPS view of the most recent
	// round so /status never reads the controller concurrently with a
	// decision (nil/false for non-DPS managers).
	lastPrio     []bool
	lastRestored bool
	// lastDirtyUnits/lastSkippedUnits/lastDirtyFrac cache the most recent
	// round's work counters for /status (zero for non-DPS managers).
	lastDirtyUnits   int
	lastSkippedUnits int
	lastDirtyFrac    float64
	owner            []*serverConn // per-unit owning connection, nil if unclaimed
	conns            map[*serverConn]struct{}
	closed           bool
	rounds           atomic.Uint64 // advanced under mu; loaded lock-free by ingest tracing

	// inheritedRounds is how many of the round counter's rounds were run
	// by a previous process (restored from a snapshot or inherited at
	// standby takeover): uptime_rounds = rounds - inheritedRounds, while
	// state_age_rounds = rounds. Zero on a fresh boot.
	inheritedRounds atomic.Uint64

	// The snapshot/replication plane (DESIGN.md §14), guarded by snapMu.
	// Lock order: snapMu → mu → imu; only the decision loop (via
	// replicateRound) and replica (un)registration take snapMu, so
	// neither ingest nor cap pushes ever contend on it. All the buffers
	// are reused round over round — a warm replication round allocates
	// nothing.
	snapMu    sync.Mutex
	snapState snapshot.State // reused export target
	snapEnc   []byte         // latest assembled image (complete rounds only)
	nextEnc   []byte         // scratch the next image encodes into
	curSecs   [][]byte       // section framings of snapEnc
	prevSecs  [][]byte       // section framings of the previous image
	deltaBuf  []byte         // FrameDelta payload scratch
	replicas  map[*replicaConn]struct{}
	// lastFileRound is the round of the most recent snapshot file write.
	lastFileRound uint64
	// Black-box flight recorder (DESIGN.md §15): bb is the on-disk round
	// ring, nil when BlackboxPath is unset. bbRound is the retained
	// encode target — its Units slice is preallocated to cfg.Units in
	// NewServer and re-filled every round, so a warm append allocates
	// nothing. bbClosed stops appends racing the final flush in Close.
	bb       *blackbox.Writer
	bbRound  blackbox.Round
	bbClosed bool

	// dial is the standby's outbound connector toward its primary; tests
	// override it to interpose fault injection. Nil means net.Dial.
	dial func(network, addr string) (net.Conn, error)
}

// replicaConn is one warm-standby subscriber. synced flips once the full
// snapshot image went out; until then the replica receives no deltas (a
// delta against state it never saw would be garbage).
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

// healthEnabled reports whether the per-unit health state machine is
// active (either threshold configured).
func (s *Server) healthEnabled() bool {
	return s.cfg.StaleAfter > 0 || s.cfg.DeadAfter > 0
}

// maxReading resolves the inbound reading ceiling.
func (s *Server) maxReading() power.Watts {
	if s.cfg.MaxReading > 0 {
		return s.cfg.MaxReading
	}
	return 2 * s.cfg.Manager.Budget().UnitMax
}

// serverMetrics holds the registry handles the control loop updates every
// round; capturing them once keeps the hot path free of map lookups.
type serverMetrics struct {
	rounds      *telemetry.Counter
	agents      *telemetry.Gauge
	budget      *telemetry.Gauge
	capSum      *telemetry.Gauge
	decide      *telemetry.Histogram
	e2eLatency  *telemetry.Histogram
	stages      map[string]*telemetry.Histogram // keyed by pipeline stage
	restores    *telemetry.Counter
	prioFlips   *telemetry.Counter
	exhausted   *telemetry.Counter
	violations  *telemetry.Counter
	pushErrors  *telemetry.Counter
	connects    *telemetry.Counter
	disconnects *telemetry.Counter
	badReadings *telemetry.Counter
	reaps       *telemetry.Counter
	// Ingest-plane counters: one frame counter per upstream frame kind
	// plus the total record count they carried.
	ingestReports    *telemetry.Counter
	ingestBatches    *telemetry.Counter
	ingestHeartbeats *telemetry.Counter
	ingestRecords    *telemetry.Counter
	staleUnits       *telemetry.Gauge
	deadUnits        *telemetry.Gauge
	// Work gauges: the most recent round's dirty and skipped unit counts
	// (both stay 0 for non-DPS managers).
	dirtyUnits   *telemetry.Gauge
	skippedUnits *telemetry.Gauge
	// High-availability instrumentation: size and assembly time of the
	// state snapshot, takeovers performed by this process, and (on a
	// standby) how many primary rounds the replication stream skipped.
	snapshotBytes *telemetry.Gauge
	snapshotDur   *telemetry.Histogram
	failovers     *telemetry.Counter
	standbyLag    *telemetry.Gauge
	// Black-box flight recorder accounting: bytes appended to the
	// on-disk ring and rounds it failed to persist.
	bbBytes   *telemetry.Counter
	bbDropped *telemetry.Counter
	// transitions indexes dps_health_transitions_total{from,to} by
	// from*3+to for the six possible state changes (nil where from == to).
	transitions [9]*telemetry.Counter
	unitPower   []*telemetry.Gauge
	unitCap     []*telemetry.Gauge
	unitPrio    []*telemetry.Gauge // nil unless the manager is a core.DPS
	unitHealth  []*telemetry.Gauge // nil unless health tracking is enabled
}

// pipeline stage names, the label values of dps_stage_seconds.
const (
	stageKalman    = "kalman"
	stageStateless = "stateless"
	stagePriority  = "priority"
	stageReadjust  = "readjust"
)

// e2eLatencyBuckets brackets the reading-snapshot→enforced-cap apply-echo
// path: two network hops plus an agent-side cap program, so unlike the
// in-process DefSecondsBuckets it starts at 100 µs (same-host loopback)
// and runs to 2.5 s (a WAN'd or heavily loaded agent several decision
// intervals late). See the bucket-choice rule in the telemetry package
// comment.
var e2eLatencyBuckets = []float64{
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5,
}

// registerBuildInfo publishes the dps_build_info gauge: constant 1, with
// the interesting data in the labels (the Prometheus *_info convention),
// so dashboards can join any metric against the running build.
func registerBuildInfo(reg *telemetry.Registry) {
	reg.Gauge("dps_build_info", "Build metadata; the value is always 1.",
		telemetry.Label{Key: "version", Value: version.Version},
		telemetry.Label{Key: "goversion", Value: runtime.Version()}).Set(1)
}

func newServerMetrics(reg *telemetry.Registry, cfg ServerConfig) serverMetrics {
	registerBuildInfo(reg)
	m := serverMetrics{
		rounds:      reg.Counter("dps_rounds_total", "Decision rounds completed."),
		agents:      reg.Gauge("dps_agents", "Connected node agents."),
		budget:      reg.Gauge("dps_budget_watts", "Cluster-wide power budget."),
		capSum:      reg.Gauge("dps_cap_sum_watts", "Sum of assigned caps."),
		decide:      reg.Histogram("dps_decide_seconds", "Wall time of one full decision round.", nil),
		e2eLatency:  reg.Histogram("dps_e2e_latency_seconds", "Reading snapshot to enforced-cap echo, measured on the server clock (needs agents with apply-echo enabled).", e2eLatencyBuckets),
		restores:    reg.Counter("dps_restore_total", "Algorithm 3 restorations (all units quiet, caps reset)."),
		prioFlips:   reg.Counter("dps_priority_flips_total", "Per-unit priority changes across rounds."),
		exhausted:   reg.Counter("dps_readjust_exhausted_total", "Readjust rounds that equalized because no budget was left."),
		violations:  reg.Counter("dps_budget_violations_total", "Rounds whose cap sum exceeded the budget before the final clamp (should stay 0)."),
		pushErrors:  reg.Counter("dps_push_errors_total", "Failed cap pushes to agents."),
		connects:    reg.Counter("dps_agent_connects_total", "Agent connections accepted."),
		disconnects: reg.Counter("dps_agent_disconnects_total", "Agent connections lost."),
		badReadings: reg.Counter("dps_server_bad_readings_total", "Inbound readings rejected at the server boundary (NaN/Inf/negative/over-ceiling)."),
		reaps:       reg.Counter("dps_conn_reaped_total", "Connections closed by the server-side idle read deadline."),
		ingestReports: reg.Counter("dps_ingest_frames_total", "Upstream frames ingested, by frame kind.",
			telemetry.Label{Key: "kind", Value: "report"}),
		ingestBatches: reg.Counter("dps_ingest_frames_total", "Upstream frames ingested, by frame kind.",
			telemetry.Label{Key: "kind", Value: "batch"}),
		ingestHeartbeats: reg.Counter("dps_ingest_frames_total", "Upstream frames ingested, by frame kind.",
			telemetry.Label{Key: "kind", Value: "heartbeat"}),
		ingestRecords: reg.Counter("dps_ingest_records_total", "Power records carried by ingested report and batch frames."),
		staleUnits:    reg.Gauge("dps_stale_units", "Units currently stale (cap frozen, awaiting reports)."),
		deadUnits:     reg.Gauge("dps_dead_units", "Units currently dead (budget reserved at last delivered cap)."),
		dirtyUnits:    reg.Gauge("dps_decide_dirty_units", "Units whose reading changed since the previous decision snapshot (sparse rounds only)."),
		skippedUnits:  reg.Gauge("dps_decide_skipped_units", "Units the controller skipped as settled in the last round (sparse rounds only)."),
		snapshotBytes: reg.Gauge("dps_snapshot_bytes", "Size of the last assembled state snapshot image (0 until one is assembled)."),
		snapshotDur:   reg.Histogram("dps_snapshot_duration_seconds", "Wall time to export and encode one state snapshot.", nil),
		failovers:     reg.Counter("dps_failover_total", "Standby takeovers performed by this process."),
		standbyLag:    reg.Gauge("dps_standby_lag_rounds", "Primary rounds the replication stream skipped between consecutive deltas (standby only; should stay 0)."),
		bbBytes:       reg.Counter("dps_blackbox_bytes_total", "Bytes appended to the black-box flight recorder's on-disk ring."),
		bbDropped:     reg.Counter("dps_blackbox_dropped_rounds_total", "Rounds the black-box recorder failed to persist (append errors; should stay 0)."),
		stages:        make(map[string]*telemetry.Histogram, 4),
	}
	healthEnabled := cfg.StaleAfter > 0 || cfg.DeadAfter > 0
	if healthEnabled {
		for from := core.HealthFresh; from <= core.HealthDead; from++ {
			for to := core.HealthFresh; to <= core.HealthDead; to++ {
				if from == to {
					continue
				}
				m.transitions[int(from)*3+int(to)] = reg.Counter(
					"dps_health_transitions_total", "Per-unit health state transitions.",
					telemetry.Label{Key: "from", Value: from.String()},
					telemetry.Label{Key: "to", Value: to.String()})
			}
		}
	}
	for _, stage := range []string{stageKalman, stageStateless, stagePriority, stageReadjust} {
		m.stages[stage] = reg.Histogram("dps_stage_seconds",
			"Wall time per pipeline stage per decision round.", nil,
			telemetry.Label{Key: "stage", Value: stage})
	}
	m.budget.Set(float64(cfg.Manager.Budget().Total))
	_, isDPS := cfg.Manager.(*core.DPS)
	initialCaps := cfg.Manager.Caps()
	for u := 0; u < cfg.Units; u++ {
		lbl := telemetry.Label{Key: "unit", Value: strconv.Itoa(u)}
		m.unitPower = append(m.unitPower, reg.Gauge("dps_unit_power_watts", "Last reported power per unit.", lbl))
		m.unitCap = append(m.unitCap, reg.Gauge("dps_unit_cap_watts", "Assigned cap per unit.", lbl))
		m.unitCap[u].Set(float64(initialCaps[u]))
		if isDPS {
			m.unitPrio = append(m.unitPrio, reg.Gauge("dps_unit_high_priority", "DPS priority flag per unit.", lbl))
		}
		if healthEnabled {
			m.unitHealth = append(m.unitHealth, reg.Gauge("dps_unit_health", "Unit health state (0 fresh, 1 stale, 2 dead).", lbl))
		}
	}
	return m
}

type serverConn struct {
	conn    net.Conn
	sess    *proto.Session
	hello   proto.Hello
	writeMu sync.Mutex

	// Apply-echo bookkeeping (capability connections only): the reading
	// snapshot time and round of the last successful cap push, so an
	// inbound echo can be turned into a reading→enforced-cap latency on
	// the server's own clock. Atomics: stored by the decision loop, read
	// by the connection's Handle goroutine.
	lastSnapNano  atomic.Int64
	lastPushRound atomic.Uint64
}

// NewServer builds a controller daemon around a manager.
func NewServer(cfg ServerConfig) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	tracer := trace.NewRecorder(cfg.TraceSpans)
	tracer.SetEnabled(cfg.TraceEnabled)
	if d, ok := cfg.Manager.(*core.DPS); ok {
		d.SetTracer(tracer)
	}
	s := &Server{
		cfg:        cfg,
		tel:        reg,
		recorder:   telemetry.NewFlightRecorder(cfg.FlightRecorderSize),
		tracer:     tracer,
		metrics:    newServerMetrics(reg, cfg),
		now:        time.Now,
		readings:   make(power.Vector, cfg.Units),
		dirty:      core.NewDirtyMask(cfg.Units),
		snapBuf:    make(power.Vector, cfg.Units),
		dirtyBuf:   core.NewDirtyMask(cfg.Units),
		lastCaps:   cfg.Manager.Caps().Clone(),
		lastPushed: cfg.Manager.Caps().Clone(),
		owner:      make([]*serverConn, cfg.Units),
		conns:      make(map[*serverConn]struct{}),
		replicas:   make(map[*replicaConn]struct{}),
	}
	if s.healthEnabled() {
		s.health = make([]core.UnitHealth, cfg.Units)
		s.healthBuf = make([]core.UnitHealth, cfg.Units)
		s.lastReport = make([]time.Time, cfg.Units)
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
		scfg := cfg.SeriesConfig
		if scfg.RawInterval <= 0 {
			scfg.RawInterval = cfg.Interval
		}
		s.store = series.NewStore(scfg)
		s.sampler = series.NewSampler(reg, s.store)
	}
	if cfg.WatchEnabled {
		s.watcher = watch.New(watch.Config{
			Rules:            cfg.WatchRules,
			Store:            s.store,
			Registry:         reg,
			Logf:             cfg.Logf,
			BudgetToleranceW: cfg.BudgetToleranceW,
		})
	}
	if cfg.BlackboxPath != "" {
		bb, err := blackbox.Open(cfg.BlackboxPath, cfg.BlackboxRounds)
		if err != nil {
			return nil, fmt.Errorf("daemon: opening black box: %w", err)
		}
		s.bb = bb
		s.bbRound.Units = make([]blackbox.UnitRound, cfg.Units)
	}
	return s, nil
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

// Handle serves one agent connection: handshake, then a frame-reading
// loop until the connection fails or the server closes. It blocks; run it
// in its own goroutine per connection (Serve does).
func (s *Server) Handle(conn net.Conn) error {
	s.armReadDeadline(conn)
	sess, err := proto.Accept(conn)
	if err != nil {
		conn.Close()
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			s.metrics.reaps.Inc()
		}
		return err
	}
	hello := sess.Hello()
	if hello.Replicate {
		// Not an agent at all: a warm standby subscribing to the state
		// stream. It claims no units and sends no frames.
		return s.handleReplica(conn, sess)
	}
	if hello.Batch && s.cfg.DisableBatchIngest {
		sess.Release()
		conn.Close()
		return fmt.Errorf("daemon: batch ingest disabled, rejecting batch agent for units [%d,%d)",
			hello.FirstUnit, int(hello.FirstUnit)+hello.Units)
	}
	sc := &serverConn{conn: conn, sess: sess, hello: hello}
	if err := s.register(sc); err != nil {
		sess.Release()
		conn.Close()
		return err
	}
	if err := sess.Ack(s.cfg.DeltaEpsilon); err != nil {
		s.unregister(sc)
		sess.Release()
		conn.Close()
		return err
	}
	s.logf("daemon: agent connected, units [%d,%d)", hello.FirstUnit, int(hello.FirstUnit)+hello.Units)

	defer func() {
		s.unregister(sc)
		conn.Close()
		sess.Release()
		s.logf("daemon: agent for units [%d,%d) disconnected", hello.FirstUnit, int(hello.FirstUnit)+hello.Units)
	}()
	for {
		if err := s.serveFrame(sc); err != nil {
			return s.connReadErr(hello, err)
		}
	}
}

// serveFrame reads and dispatches one upstream frame from a connection:
// the hot receive path, factored out of Handle's loop so tests can drive
// it synchronously and pin its per-reading allocation cost (zero, once
// the session is warm).
func (s *Server) serveFrame(sc *serverConn) error {
	s.armReadDeadline(sc.conn)
	frame, err := sc.sess.ReadFrame()
	if err != nil {
		return err
	}
	switch frame.Kind {
	case proto.KindApply:
		s.observeApplyEcho(sc, frame.ApplyDur)
	case proto.KindHeartbeat:
		// Touch before counting: once the counter is visible, the clock
		// refresh is too (tests synchronize on the counters).
		s.touchUnits(sc.hello)
		s.metrics.ingestHeartbeats.Inc()
	default:
		s.ingest(sc, frame)
	}
	return nil
}

// ingest lands one report or batch frame in the front reading buffer.
//
// Staleness-clock rule: a frame refreshes the clock of every unit it
// carries an *accepted* record for, and — on delta batches — of every
// unit it omits: omission under delta reporting is the agent asserting
// "unchanged within epsilon", which is live information. A unit whose
// record is rejected by the sanitizer gets no refresh from its own
// garbage (self-quarantine), exactly as on the full-report path.
func (s *Server) ingest(sc *serverConn, frame proto.Frame) {
	traceOn := s.tracer.On()
	var ingestStart time.Time
	if traceOn {
		ingestStart = time.Now()
	}
	hello := sc.hello
	first := int(hello.FirstUnit)
	now := s.now()
	ceiling := s.maxReading()
	s.imu.Lock()
	switch frame.Kind {
	case proto.KindReport:
		for _, rec := range frame.Records {
			v := proto.FromDeciwatts(rec.Value)
			u := first + int(rec.LocalUnit)
			if badReading(v, ceiling) {
				// Rejected readings never reach the filter and never refresh
				// the staleness clock: a garbage-reporting agent quarantines
				// itself into the stale state.
				s.metrics.badReadings.Inc()
				continue
			}
			s.readings[u] = v
			s.dirty.Mark(u)
			if s.lastReport != nil {
				s.lastReport[u] = now
			}
		}
	case proto.KindBatch:
		// Records arrive strictly increasing (the canonical encoding), so
		// one walk covers both the carried units and the suppressed gaps
		// between them.
		next := 0
		for _, rec := range frame.Records {
			lu := int(rec.LocalUnit)
			if s.lastReport != nil {
				for ; next < lu; next++ {
					s.lastReport[first+next] = now
				}
			}
			next = lu + 1
			v := proto.FromDeciwatts(rec.Value)
			if badReading(v, ceiling) {
				s.metrics.badReadings.Inc()
				continue
			}
			s.readings[first+lu] = v
			s.dirty.Mark(first + lu)
			if s.lastReport != nil {
				s.lastReport[first+lu] = now
			}
		}
		if s.lastReport != nil {
			for ; next < hello.Units; next++ {
				s.lastReport[first+next] = now
			}
		}
	}
	s.imu.Unlock()
	if frame.Kind == proto.KindBatch {
		s.metrics.ingestBatches.Inc()
	} else {
		s.metrics.ingestReports.Inc()
	}
	s.metrics.ingestRecords.Add(uint64(len(frame.Records)))
	if traceOn {
		// the decision round this frame will feed
		round := s.rounds.Load() + 1
		s.tracer.Record(round, trace.SpanIngest, trace.LaneIngest,
			int32(hello.FirstUnit), ingestStart, time.Since(ingestStart))
	}
}

// touchUnits refreshes the staleness clock for every unit of a
// connection — a heartbeat's whole meaning: alive, readings stand.
func (s *Server) touchUnits(hello proto.Hello) {
	if s.lastReport == nil {
		return
	}
	now := s.now()
	first := int(hello.FirstUnit)
	s.imu.Lock()
	for u := first; u < first+hello.Units; u++ {
		s.lastReport[u] = now
	}
	s.imu.Unlock()
}

// connReadErr classifies a failed read on an established agent
// connection: nil on server shutdown, a reap on idle timeout (so the
// units can be re-claimed by a fresh session instead of staying owned by
// a hung socket forever), the error itself otherwise.
func (s *Server) connReadErr(hello proto.Hello, err error) error {
	if s.isClosed() {
		return nil
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		s.metrics.reaps.Inc()
		return fmt.Errorf("daemon: reaping idle agent for units [%d,%d): %w",
			hello.FirstUnit, int(hello.FirstUnit)+hello.Units, err)
	}
	return err
}

// observeApplyEcho turns an agent's cap-apply acknowledgement into the
// end-to-end latency sample the paper's deployment section asks for:
// reading snapshot → caps enforced on the node, both endpoints stamped on
// the server's clock so no cross-machine clock sync is needed. Echoes
// arriving before the connection's first cap push carry no reference
// snapshot and are dropped.
func (s *Server) observeApplyEcho(sc *serverConn, applyDur time.Duration) {
	snapNano := sc.lastSnapNano.Load()
	if snapNano == 0 {
		return
	}
	now := s.now()
	e2e := now.Sub(time.Unix(0, snapNano))
	if e2e < 0 {
		e2e = 0
	}
	s.metrics.e2eLatency.Observe(e2e.Seconds())
	if s.tracer.On() {
		s.tracer.Record(sc.lastPushRound.Load(), trace.SpanApply, trace.LaneAgent,
			int32(sc.hello.FirstUnit), now.Add(-applyDur), applyDur)
	}
}

// armReadDeadline applies the configured idle read deadline to conn, or
// clears it when disabled.
func (s *Server) armReadDeadline(conn net.Conn) {
	if t := s.cfg.ReadIdleTimeout; t > 0 {
		conn.SetReadDeadline(time.Now().Add(t))
	}
}

// badReading reports whether an inbound power report is garbage the
// boundary must reject: NaN, ±Inf, negative, or above the ceiling.
func badReading(v, ceiling power.Watts) bool {
	f := float64(v)
	return math.IsNaN(f) || math.IsInf(f, 0) || v < 0 || v > ceiling
}

func (s *Server) register(sc *serverConn) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("daemon: server closed")
	}
	first, n := int(sc.hello.FirstUnit), sc.hello.Units
	if first+n > len(s.owner) {
		return fmt.Errorf("daemon: agent claims units [%d,%d) beyond the configured %d", first, first+n, len(s.owner))
	}
	for u := first; u < first+n; u++ {
		if s.owner[u] != nil {
			return fmt.Errorf("daemon: unit %d already owned by another agent", u)
		}
	}
	for u := first; u < first+n; u++ {
		s.owner[u] = sc
	}
	// A (re-)handshake restarts the staleness clock so the unit is fresh
	// again by the next decision round, before its first report even
	// lands. (Lock order: mu held, imu nested inside.)
	if s.lastReport != nil {
		now := s.now()
		s.imu.Lock()
		for u := first; u < first+n; u++ {
			s.lastReport[u] = now
		}
		s.imu.Unlock()
	}
	s.conns[sc] = struct{}{}
	s.metrics.connects.Inc()
	s.metrics.agents.Set(float64(len(s.conns)))
	return nil
}

func (s *Server) unregister(sc *serverConn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	first, n := int(sc.hello.FirstUnit), sc.hello.Units
	for u := first; u < first+n; u++ {
		if s.owner[u] == sc {
			s.owner[u] = nil
		}
	}
	if _, ok := s.conns[sc]; ok {
		delete(s.conns, sc)
		s.metrics.disconnects.Inc()
		s.metrics.agents.Set(float64(len(s.conns)))
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

// statsDecider is the stats-returning decision API a manager may offer
// beyond core.Manager (core.DPS does). The server prefers it over plain
// Decide: the stats arrive atomically with the caps, so overlapping
// observers can never read a stale round.
type statsDecider interface {
	DecideStats(core.Snapshot) (power.Vector, core.RoundStats)
}

// DecideOnce runs one decision round: snapshot the latest readings, run
// the manager, and push each connected agent its cap assignments. Units
// without a live agent still participate in the decision (their last
// report persists) but receive no message. It returns the caps decided.
//
// DecideOnce must not be called concurrently with itself (the manager is
// single-threaded); Serve guarantees that by calling it from one loop.
func (s *Server) DecideOnce(interval power.Seconds) (power.Vector, error) {
	snapTime := s.now() // reading-snapshot stamp, the e2e latency origin

	// Flip the double buffer: copy the ingest plane's front buffer into
	// the decision loop's private back buffer and classify health from
	// the report clocks. This is the only time the decision path holds
	// imu, and it holds nothing else while it does.
	s.imu.Lock()
	copy(s.snapBuf, s.readings)
	// Flip the dirty mask with the readings it describes: the front mask
	// restarts empty for the next inter-round window, and the back copy
	// tells the manager exactly which units this snapshot changed.
	s.dirtyBuf.CopyFrom(s.dirty)
	s.dirty.Reset()
	health := s.classifyHealthLocked()
	s.imu.Unlock()

	s.mu.Lock()
	round := s.rounds.Load() + 1
	s.recordHealthLocked(health)
	snap := core.Snapshot{Power: s.snapBuf, Interval: interval, Health: health, Dirty: s.dirtyBuf}
	prevCaps := s.lastCaps.Clone()
	var lastPushed power.Vector
	if health != nil {
		lastPushed = s.lastPushed.Clone()
	}
	targets := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		targets = append(targets, sc)
	}
	s.mu.Unlock()

	started := s.now()
	var caps power.Vector
	var st core.RoundStats
	hasStats := false
	if sd, ok := s.cfg.Manager.(statsDecider); ok {
		caps, st = sd.DecideStats(snap)
		hasStats = true
	} else {
		caps = s.cfg.Manager.Decide(snap)
	}
	elapsed := s.now().Sub(started)
	managerCaps := caps
	caps = s.degradedDeliver(caps, health, lastPushed)

	traceOn := s.tracer.On()
	var firstErr error
	pushed := make([]*serverConn, 0, len(targets))
	for _, sc := range targets {
		first, n := int(sc.hello.FirstUnit), sc.hello.Units
		if sc.hello.ApplyEcho {
			// Stamp before the push so an echo racing the store can never
			// pair with a snapshot newer than the caps it acknowledges.
			sc.lastSnapNano.Store(snapTime.UnixNano())
			sc.lastPushRound.Store(round)
		}
		var pushStart time.Time
		if traceOn {
			pushStart = time.Now()
		}
		sc.writeMu.Lock()
		err := sc.sess.WriteCapsRound(round, caps[first:first+n])
		sc.writeMu.Unlock()
		if traceOn {
			s.tracer.Record(round, trace.SpanPush, trace.LanePush,
				int32(first), pushStart, time.Since(pushStart))
		}
		if err != nil {
			s.metrics.pushErrors.Inc()
			if firstErr == nil {
				firstErr = fmt.Errorf("daemon: pushing caps to units [%d,%d): %w", first, first+n, err)
			}
			continue
		}
		pushed = append(pushed, sc)
	}
	s.mu.Lock()
	s.rounds.Store(round)
	copy(s.lastCaps, caps)
	for _, sc := range pushed {
		first, n := int(sc.hello.FirstUnit), sc.hello.Units
		copy(s.lastPushed[first:first+n], caps[first:first+n])
	}
	if d, ok := s.cfg.Manager.(*core.DPS); ok {
		s.lastPrio = append(s.lastPrio[:0], d.Priorities()...)
		s.lastRestored = d.Restored()
	}
	s.lastDirtyUnits, s.lastSkippedUnits, s.lastDirtyFrac = st.DirtyUnits, st.SkippedUnits, st.DirtyFrac
	s.mu.Unlock()
	// The round is complete and published: assemble the state snapshot
	// off the decision path proper and fan it out (file + replicas). A
	// no-op unless snapshotting is configured or a standby is attached.
	s.replicateRound(round)
	s.observeRound(round, started, elapsed, interval, snap.Power, prevCaps, managerCaps, caps, health, lastPushed, st, hasStats)
	return caps, firstErr
}

// classifyHealthLocked advances the per-unit health classification from
// the staleness clocks into the decision loop's private health buffer
// and returns it (nil while health tracking is disabled). Caller holds
// s.imu; the buffer is valid until the next decision round.
func (s *Server) classifyHealthLocked() []core.UnitHealth {
	if s.healthBuf == nil {
		return nil
	}
	now := s.now()
	for u := range s.healthBuf {
		age := now.Sub(s.lastReport[u])
		h := core.HealthFresh
		switch {
		case s.cfg.DeadAfter > 0 && age >= s.cfg.DeadAfter:
			h = core.HealthDead
		case s.cfg.StaleAfter > 0 && age >= s.cfg.StaleAfter:
			h = core.HealthStale
		}
		s.healthBuf[u] = h
	}
	return s.healthBuf
}

// recordHealthLocked diffs the round's health classification against the
// previous round's retained state, publishing transitions, gauges, and
// logs. Caller holds s.mu.
func (s *Server) recordHealthLocked(health []core.UnitHealth) {
	if health == nil {
		return
	}
	stale, dead := 0, 0
	for u, h := range health {
		if prev := s.health[u]; h != prev {
			if c := s.metrics.transitions[int(prev)*3+int(h)]; c != nil {
				c.Inc()
			}
			s.health[u] = h
			s.logf("daemon: unit %d health %s -> %s", u, prev, h)
		}
		s.metrics.unitHealth[u].Set(float64(h))
		switch h {
		case core.HealthStale:
			stale++
		case core.HealthDead:
			dead++
		}
	}
	s.metrics.staleUnits.Set(float64(stale))
	s.metrics.deadUnits.Set(float64(dead))
}

// degradedDeliver is the delivery-side guarantee of the degraded-mode
// contract: whatever the manager decided, every non-fresh unit's
// delivered cap equals what its agent is already enforcing (lastPushed),
// and the fresh units are rescaled toward UnitMin if that pinning pushed
// the sum over the budget. A health-aware manager (core.DPS) already
// returns such a vector and passes through untouched; this is the safety
// net for health-blind policies. The manager owns the caps vector, so a
// correction works on a clone.
func (s *Server) degradedDeliver(caps power.Vector, health []core.UnitHealth, lastPushed power.Vector) power.Vector {
	if health == nil {
		return caps
	}
	const eps = 1e-9
	budget := s.cfg.Manager.Budget()
	needsPin := false
	for u, h := range health {
		if h != core.HealthFresh && caps[u] != lastPushed[u] {
			needsPin = true
			break
		}
	}
	if !needsPin && caps.Sum() <= budget.Total+eps {
		return caps
	}
	out := caps.Clone()
	for u, h := range health {
		if h != core.HealthFresh {
			out[u] = lastPushed[u]
		}
	}
	if excess := out.Sum() - budget.Total; excess > eps {
		var headroom power.Watts
		for u, h := range health {
			if h == core.HealthFresh && out[u] > budget.UnitMin {
				headroom += out[u] - budget.UnitMin
			}
		}
		if headroom > 0 {
			frac := excess / headroom
			if frac > 1 {
				frac = 1
			}
			for u, h := range health {
				if h == core.HealthFresh && out[u] > budget.UnitMin {
					out[u] -= frac * (out[u] - budget.UnitMin)
				}
			}
		}
	}
	return out
}

// observeRound publishes one decision round to the metrics registry, the
// flight recorder, and the watchdog's invariant audits. Called from the
// decision loop only, after the round counter advanced. st carries the
// round's controller stats when hasStats is true (the manager implements
// statsDecider). managerCaps is the vector the manager decided; caps is
// what was delivered — they differ only when degradedDeliver corrected a
// health-blind policy, and the difference is what earns a unit the
// degraded_deliver reason. lastPushed is the pre-round delivered-cap
// vector (nil while health tracking is off), the reference the
// health-pin audit checks non-fresh units against.
func (s *Server) observeRound(round uint64, started time.Time, elapsed time.Duration, interval power.Seconds, readings, prevCaps, managerCaps, caps power.Vector, health []core.UnitHealth, lastPushed power.Vector, st core.RoundStats, hasStats bool) {
	m := &s.metrics
	m.rounds.Inc()
	m.decide.Observe(elapsed.Seconds())
	m.capSum.Set(float64(caps.Sum()))
	// Budget can change at runtime (hierarchical deployments re-assign
	// group budgets); refresh the gauge every round.
	m.budget.Set(float64(s.cfg.Manager.Budget().Total))
	for u := range readings {
		m.unitPower[u].Set(float64(readings[u]))
		m.unitCap[u].Set(float64(caps[u]))
	}

	rec := telemetry.RoundRecord{
		Round:     round,
		Time:      started,
		IntervalS: float64(interval),
		Stages:    telemetry.StageSeconds{Total: elapsed.Seconds()},
		BudgetW:   float64(s.cfg.Manager.Budget().Total),
		CapSumW:   float64(caps.Sum()),
		Units:     make([]telemetry.UnitRecord, len(caps)),
	}
	if inherited := s.inheritedRounds.Load(); inherited != 0 {
		rec.UptimeRounds = round - inherited
		rec.StateAgeRounds = round
	}
	for _, h := range health {
		switch h {
		case core.HealthStale:
			rec.StaleUnits++
		case core.HealthDead:
			rec.DeadUnits++
		}
	}
	var prio []bool
	if hasStats {
		rec.Stages = telemetry.StageSeconds{
			Kalman:    st.Timings.Kalman.Seconds(),
			Stateless: st.Timings.Stateless.Seconds(),
			Priority:  st.Timings.Priority.Seconds(),
			Readjust:  st.Timings.Readjust.Seconds(),
			Total:     elapsed.Seconds(),
		}
		rec.Restored = st.Restored
		rec.PriorityFlips = st.PriorityFlips
		rec.BudgetExhausted = st.BudgetExhausted
		rec.BudgetClamped = st.BudgetClamped
		rec.DirtyUnits = st.DirtyUnits
		rec.SkippedUnits = st.SkippedUnits

		m.stages[stageKalman].Observe(rec.Stages.Kalman)
		m.stages[stageStateless].Observe(rec.Stages.Stateless)
		m.stages[stagePriority].Observe(rec.Stages.Priority)
		m.stages[stageReadjust].Observe(rec.Stages.Readjust)
		if st.Restored {
			m.restores.Inc()
		}
		m.prioFlips.Add(uint64(st.PriorityFlips))
		if st.BudgetExhausted {
			m.exhausted.Inc()
		}
		if st.BudgetClamped {
			m.violations.Inc()
		}
		m.dirtyUnits.Set(float64(st.DirtyUnits))
		m.skippedUnits.Set(float64(st.SkippedUnits))
	}
	var prov []trace.CapChange
	if d, ok := s.cfg.Manager.(*core.DPS); ok {
		prio = d.Priorities()
		prov = d.Provenance()
		for u, hp := range prio {
			v := 0.0
			if hp {
				v = 1
			}
			m.unitPrio[u].Set(v)
		}
	}
	for u := range caps {
		ur := telemetry.UnitRecord{
			Unit:      u,
			ReadingW:  float64(readings[u]),
			CapW:      float64(caps[u]),
			CapDeltaW: float64(caps[u] - prevCaps[u]),
		}
		if prio != nil {
			ur.HighPriority = prio[u]
		}
		if health != nil && health[u] != core.HealthFresh {
			ur.Health = health[u].String()
		}
		if prov != nil && prov[u].Reason != trace.ReasonNone {
			ur.Reason = prov[u].Reason.String()
		}
		if caps[u] != managerCaps[u] {
			// Delivery-side pin or rescale overrode the manager: the last
			// mover for this unit was degradedDeliver, whatever the manager
			// thought it was doing.
			ur.Reason = trace.ReasonDegradedDeliver.String()
		}
		rec.Units[u] = ur
	}
	s.recorder.Append(rec)

	if s.watcher != nil {
		audit := watch.RoundAudit{
			Round:             round,
			Time:              started,
			BudgetW:           rec.BudgetW,
			CapSumW:           rec.CapSumW,
			ProvenanceAudited: prov != nil,
		}
		for u := range caps {
			if health != nil && health[u] != core.HealthFresh {
				audit.PinAudited++
				if caps[u] != lastPushed[u] {
					audit.PinViolations++
				}
			}
			if audit.ProvenanceAudited && rec.Units[u].CapDeltaW != 0 && rec.Units[u].Reason == "" {
				audit.ProvenanceViolations++
			}
		}
		s.watcher.ObserveRound(audit)
	}

	s.appendBlackbox(&rec, readings, caps, managerCaps, health, prio, prov)
}

// appendBlackbox writes one completed round into the black-box flight
// recorder's on-disk ring. It runs on the decision goroutine after the
// round is published, re-filling the retained s.bbRound so a warm append
// allocates nothing; a failed append drops the round (counted by
// dps_blackbox_dropped_rounds_total) rather than stalling the control
// loop. snapMu orders it against the final flush in Close.
func (s *Server) appendBlackbox(rec *telemetry.RoundRecord, readings, caps, managerCaps power.Vector, health []core.UnitHealth, prio []bool, prov []trace.CapChange) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if s.bb == nil || s.bbClosed {
		return
	}
	r := &s.bbRound
	r.Round = rec.Round
	r.UnixNano = rec.Time.UnixNano()
	r.IntervalS = rec.IntervalS
	r.BudgetW = rec.BudgetW
	r.CapSumW = rec.CapSumW
	r.KalmanS = rec.Stages.Kalman
	r.StatelessS = rec.Stages.Stateless
	r.PriorityS = rec.Stages.Priority
	r.ReadjustS = rec.Stages.Readjust
	r.TotalS = rec.Stages.Total
	r.Restored = rec.Restored
	r.BudgetExhausted = rec.BudgetExhausted
	r.BudgetClamped = rec.BudgetClamped
	r.PriorityFlips = rec.PriorityFlips
	r.StaleUnits = rec.StaleUnits
	r.DeadUnits = rec.DeadUnits
	r.DirtyUnits = rec.DirtyUnits
	r.SkippedUnits = rec.SkippedUnits
	r.Units = r.Units[:len(caps)]
	for u := range caps {
		ur := &r.Units[u]
		ur.ReadingDW = proto.ToDeciwatts(readings[u])
		ur.CapDW = proto.ToDeciwatts(caps[u])
		ur.Prio = prio != nil && prio[u]
		ur.Health = 0
		if health != nil {
			ur.Health = uint8(health[u])
		}
		ur.Reason = trace.ReasonNone
		if prov != nil {
			ur.Reason = prov[u].Reason
		}
		if caps[u] != managerCaps[u] {
			ur.Reason = trace.ReasonDegradedDeliver
		}
	}
	wrote, _, err := s.bb.Append(r)
	if err != nil {
		s.metrics.bbDropped.Inc()
		s.logf("daemon: blackbox append: %v", err)
		return
	}
	s.metrics.bbBytes.Add(uint64(wrote))
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
	go func() {
		ticker := time.NewTicker(s.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				if _, err := s.DecideOnce(power.Seconds(s.cfg.Interval.Seconds())); err != nil {
					s.logf("daemon: decision round: %v", err)
				}
			}
		}
	}()
	if s.sampler != nil {
		// The sampler gets its own goroutine and ticker: scraping the
		// registry and evaluating watch rules never shares the decision
		// loop's schedule, so self-monitoring cannot delay a round.
		go func() {
			ticker := time.NewTicker(s.store.Config().RawInterval)
			defer ticker.Stop()
			for {
				select {
				case <-done:
					return
				case <-ticker.C:
					s.SampleOnce()
				}
			}
		}()
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
// connections, and — when SnapshotPath is configured — writes the last
// assembled state image as the final snapshot, so a graceful shutdown
// loses at most the round that was in flight. The caller should also
// close the listener passed to Serve.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	for _, sc := range conns {
		sc.conn.Close()
	}
	s.snapMu.Lock()
	for rc := range s.replicas {
		rc.conn.Close()
		delete(s.replicas, rc)
	}
	var err error
	if s.cfg.SnapshotPath != "" {
		if len(s.snapEnc) == 0 {
			s.logf("daemon: no completed round to snapshot on shutdown")
		} else if err = writeFileAtomic(s.cfg.SnapshotPath, s.snapEnc); err != nil {
			s.logf("daemon: final snapshot: %v", err)
		} else {
			s.logf("daemon: final snapshot written to %s (%d bytes, round %d)",
				s.cfg.SnapshotPath, len(s.snapEnc), s.rounds.Load())
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
	s.snapMu.Unlock()
	return err
}
