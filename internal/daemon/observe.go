package daemon

import (
	"runtime"

	"dps/internal/core"
	"dps/internal/power"
	"dps/internal/telemetry"
	"dps/internal/version"
)

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
	// standby) how many primary rounds the replication stream skipped and
	// how often the replayed state failed its check.
	snapshotBytes *telemetry.Gauge
	snapshotDur   *telemetry.Histogram
	failovers     *telemetry.Counter
	standbyLag    *telemetry.Gauge
	divergence    *telemetry.Counter
	// Black-box flight recorder accounting: bytes appended to the
	// on-disk ring and rounds it failed to persist.
	bbBytes   *telemetry.Counter
	bbDropped *telemetry.Counter
	// transitions indexes dps_health_transitions_total{from,to} by
	// from*3+to for the six possible state changes (nil where from == to).
	transitions [9]*telemetry.Counter
}

// pipeline stage names, the label values of dps_stage_seconds.
const (
	stageKalman    = "kalman"
	stageStateless = "stateless"
	stagePriority  = "priority"
	stageReadjust  = "readjust"
)

// e2eLatencyBuckets brackets the reading-snapshot→enforced-cap apply echo
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

func newServerMetrics(reg *telemetry.Registry, rec *telemetry.FlightRecorder, cfg ServerConfig, isDPS bool) serverMetrics {
	registerBuildInfo(reg)
	m := serverMetrics{
		rounds:      reg.Counter("dps_rounds_total", "Decision rounds completed."),
		agents:      reg.Gauge("dps_agents", "Connected node agents."),
		budget:      reg.Gauge("dps_budget_watts", "Cluster-wide power budget."),
		capSum:      reg.Gauge("dps_cap_sum_watts", "Sum of assigned caps."),
		decide:      reg.Histogram("dps_decide_seconds", "Wall time of one full decision round.", nil),
		e2eLatency:  reg.Histogram("dps_e2e_latency_seconds", "Reading snapshot to enforced-cap echo, measured on the server clock.", e2eLatencyBuckets),
		restores:    reg.Counter("dps_restore_total", "Algorithm 3 restorations (all units quiet, caps reset)."),
		prioFlips:   reg.Counter("dps_priority_flips_total", "Per-unit priority changes across rounds."),
		exhausted:   reg.Counter("dps_readjust_exhausted_total", "Readjust rounds that equalized because no budget was left."),
		violations:  reg.Counter("dps_budget_violations_total", "Rounds whose budget fit found the pinned caps and the rest at their minimum over the budget (should stay 0)."),
		pushErrors:  reg.Counter("dps_push_errors_total", "Failed cap pushes to agents."),
		connects:    reg.Counter("dps_agent_connects_total", "Agent connections accepted."),
		disconnects: reg.Counter("dps_agent_disconnects_total", "Agent connections lost."),
		badReadings: reg.Counter("dps_server_bad_readings_total", "Inbound readings rejected at the server boundary (NaN/Inf/negative/over-ceiling)."),
		reaps:       reg.Counter("dps_conn_reaped_total", "Connections closed by the server-side idle read deadline."),
		ingestBatches: reg.Counter("dps_ingest_frames_total", "Upstream frames ingested, by frame kind.",
			telemetry.Label{Key: "kind", Value: "batch"}),
		ingestHeartbeats: reg.Counter("dps_ingest_frames_total", "Upstream frames ingested, by frame kind.",
			telemetry.Label{Key: "kind", Value: "heartbeat"}),
		ingestRecords: reg.Counter("dps_ingest_records_total", "Power records carried by ingested report and batch frames."),
		staleUnits:    reg.Gauge("dps_stale_units", "Units currently stale (cap frozen, awaiting reports)."),
		deadUnits:     reg.Gauge("dps_dead_units", "Units currently dead (budget reserved at last delivered cap)."),
		dirtyUnits:    reg.Gauge("dps_decide_dirty_units", "Units whose reading changed since the previous decision snapshot (0 for policies other than DPS)."),
		skippedUnits:  reg.Gauge("dps_decide_skipped_units", "Units the controller skipped as settled in the last round (0 for policies other than DPS)."),
		snapshotBytes: reg.Gauge("dps_snapshot_bytes", "Size of the last assembled state snapshot image (0 until one is assembled)."),
		snapshotDur:   reg.Histogram("dps_snapshot_duration_seconds", "Wall time to export and encode one state snapshot.", nil),
		failovers:     reg.Counter("dps_failover_total", "Standby takeovers performed by this process."),
		standbyLag:    reg.Gauge("dps_standby_lag_rounds", "Primary rounds the replication stream skipped between consecutive deltas (standby only; should stay 0)."),
		divergence:    reg.Counter("dps_standby_divergence_total", "Replicated rounds this standby could not reproduce (caps digest mismatch, round-sequence gap or undecodable input); each one forces a full resync (standby only; should stay 0)."),
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
	registerUnitColumns(reg, rec, cfg.Manager.Caps().Clone(), isDPS, healthEnabled)
	return m
}

// registerUnitColumns publishes the per-unit families as views of the
// newest round record: a scrape copies one column of the slot
// FlightRecorder.Each(1, …) yields, under the recorder lock, and formats
// the copy outside it. The decision loop writes nothing for them, and one
// scrape of a family is one round's cut. Before the first published round
// they read what the manager started with: initialCaps, and 0 for the
// rest.
func registerUnitColumns(reg *telemetry.Registry, rec *telemetry.FlightRecorder, initialCaps power.Vector, isDPS, healthEnabled bool) {
	units := len(initialCaps)
	reg.GaugeColumn("dps_unit_power_watts", "Last reported power per unit.", units, func(dst []float64) {
		if !newestRound(rec, func(r *telemetry.Round) { floats(dst, r.Reading) }) {
			clear(dst)
		}
	})
	reg.GaugeColumn("dps_unit_cap_watts", "Assigned cap per unit.", units, func(dst []float64) {
		if !newestRound(rec, func(r *telemetry.Round) { floats(dst, r.Cap) }) {
			floats(dst, initialCaps)
		}
	})
	if isDPS {
		reg.GaugeColumn("dps_unit_high_priority", "DPS priority flag per unit.", units, func(dst []float64) {
			if !newestRound(rec, func(r *telemetry.Round) {
				for u := range dst {
					dst[u] = 0
					if r.Prio[u] {
						dst[u] = 1
					}
				}
			}) {
				clear(dst)
			}
		})
	}
	if healthEnabled {
		reg.GaugeColumn("dps_unit_health", "Unit health state (0 fresh, 1 stale, 2 dead).", units, func(dst []float64) {
			if !newestRound(rec, func(r *telemetry.Round) { floats(dst, r.Health) }) {
				clear(dst)
			}
		})
	}
}

// newestRound calls fn on the recorder's newest held round, under its
// lock, and reports whether there was one. A plain function, so the
// closures handed to it stay on the scraping goroutine's stack.
func newestRound(rec *telemetry.FlightRecorder, fn func(*telemetry.Round)) (held bool) {
	rec.Each(1, func(r *telemetry.Round) { fn(r); held = true })
	return held
}

// floats copies the first len(dst) entries of a numeric column.
func floats[T ~float64 | ~uint8](dst []float64, col []T) {
	for u := range dst {
		dst[u] = float64(col[u])
	}
}

// observeRound hands one completed, published round to its consumers in
// a fixed order: the metrics registry's per-round counters, gauges and
// histograms, the watchdog's invariant audits, and the black box. Called
// from the decision loop only; rec is the flight-recorder slot
// DecideOnce just committed, stable until the ring laps it.
func (s *Server) observeRound(rec *telemetry.Round) {
	m := &s.metrics
	m.rounds.Inc()
	m.decide.Observe(rec.Elapsed.Seconds())
	m.capSum.Set(rec.CapSumW)
	// Budget can change at runtime (hierarchical deployments re-assign
	// group budgets); refresh the gauge every round.
	m.budget.Set(rec.BudgetW)
	if rec.HasStats {
		st := &rec.Stats
		m.stages[stageKalman].Observe(st.Timings.Kalman.Seconds())
		m.stages[stageStateless].Observe(st.Timings.Stateless.Seconds())
		m.stages[stagePriority].Observe(st.Timings.Priority.Seconds())
		m.stages[stageReadjust].Observe(st.Timings.Readjust.Seconds())
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

	s.watcher.ObserveRound(rec)

	// The black-box append drops a round it cannot persist (counted by
	// dps_blackbox_dropped_rounds_total) rather than stalling the control
	// loop. snapMu orders it against the final flush in Close.
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if s.bb == nil || s.bbClosed {
		return
	}
	wrote, _, err := s.bb.Append(rec)
	if err != nil {
		m.bbDropped.Inc()
		s.logf("daemon: blackbox append: %v", err)
		return
	}
	m.bbBytes.Add(uint64(wrote))
}
