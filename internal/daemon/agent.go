package daemon

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dps/internal/power"
	"dps/internal/proto"
	"dps/internal/rapl"
	"dps/internal/telemetry"
	"dps/internal/trace"
)

// AgentConfig configures one node's client.
type AgentConfig struct {
	// FirstUnit is the node's first global unit ID; local unit i maps to
	// global FirstUnit+i.
	FirstUnit power.UnitID
	// Devices are the node's power-capping units, in local order.
	Devices []rapl.Device
	// Interval is the report period, matching the server's decision loop.
	Interval time.Duration
	// Logf, if non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// MeterErrorTolerance is the number of consecutive RAPL read errors
	// each meter rides through by holding its last good sample before an
	// error tears down the session. Zero selects the default
	// (DefaultMeterErrorTolerance); negative disables tolerance entirely.
	MeterErrorTolerance int
	// ReconnectJitter, if non-nil, replaces the rand source behind the
	// reconnect backoff jitter with a deterministic one (tests). It must
	// return values in [0, 1).
	ReconnectJitter func() float64
	// ApplyEcho is accepted and ignored: every agent acknowledges each cap
	// batch it programs with an apply echo (DESIGN.md §10). The field stays
	// so code written for older builds keeps compiling.
	ApplyEcho bool
	// Batch turns on delta suppression: a report carries only the units
	// whose reading moved by more than the delta epsilon since last sent,
	// and a fully quiet interval becomes a one-byte heartbeat. Off, every
	// report carries every unit.
	Batch bool
	// DeltaEpsilon is the local delta-suppression band in watts: a unit's
	// reading is withheld while it stays within ±epsilon of the last value
	// actually sent (compared in wire deciwatts, so epsilon 0 still
	// suppresses bit-identical readings and nothing else). Zero adopts the
	// epsilon the server advertises in its handshake ack; a positive value
	// overrides it. Ignored unless Batch is on.
	DeltaEpsilon power.Watts
	// RefreshEvery forces an unsuppressed full report every N reports with
	// Batch on, healing any divergence without waiting for readings
	// to move. Zero selects the default (DefaultRefreshEvery); negative
	// disables periodic refresh (pure delta — heartbeats alone keep the
	// session fresh). Ignored unless Batch is on.
	RefreshEvery int
	// TraceCtx is accepted and ignored: every cap batch carries the
	// controller round, so the agent's spans always name the round that
	// caused them (DESIGN.md §12). The field stays so code written for
	// older builds keeps compiling.
	TraceCtx bool
	// Trace enables the agent's span recorder: meter read, report
	// decision, and cap apply each become a span in a local ring served
	// at GET /debug/trace. Off by default; recording is zero-cost when
	// off.
	Trace bool
	// TraceSpans caps the span ring (trace.DefaultSpanCapacity when 0).
	TraceSpans int
}

// DefaultMeterErrorTolerance is how many consecutive meter read errors an
// agent absorbs by default before surfacing the failure.
const DefaultMeterErrorTolerance = 3

// DefaultRefreshEvery is how often a batch-mode agent forces a full
// unsuppressed report by default: one complete refresh per 64 intervals
// bounds how long any divergence between the agent's and the controller's
// view of a quiet unit can persist.
const DefaultRefreshEvery = 64

// refreshEvery resolves the configured full-refresh period.
func (c AgentConfig) refreshEvery() int {
	switch {
	case c.RefreshEvery < 0:
		return 0
	case c.RefreshEvery == 0:
		return DefaultRefreshEvery
	}
	return c.RefreshEvery
}

// meterTolerance resolves the configured tolerance.
func (c AgentConfig) meterTolerance() int {
	switch {
	case c.MeterErrorTolerance < 0:
		return 0
	case c.MeterErrorTolerance == 0:
		return DefaultMeterErrorTolerance
	}
	return c.MeterErrorTolerance
}

func (c AgentConfig) validate() error {
	switch {
	case len(c.Devices) == 0:
		return errors.New("daemon: agent needs at least one device")
	case len(c.Devices) > proto.MaxNodeUnits:
		return fmt.Errorf("daemon: %d devices exceed the protocol's per-node limit of %d", len(c.Devices), proto.MaxNodeUnits)
	case c.Interval <= 0:
		return fmt.Errorf("daemon: non-positive agent interval %v", c.Interval)
	case c.DeltaEpsilon < 0 || math.IsNaN(float64(c.DeltaEpsilon)) || math.IsInf(float64(c.DeltaEpsilon), 0):
		return fmt.Errorf("daemon: invalid delta epsilon %v W", c.DeltaEpsilon)
	}
	return (proto.Hello{FirstUnit: c.FirstUnit, Units: len(c.Devices)}).Validate()
}

// Agent is a node client: it reads power from local RAPL devices, reports
// it, and applies the caps the controller pushes back. Reporting and cap
// application run on separate goroutines (see Run), so each direction owns
// its buffer and the counters are atomic.
type Agent struct {
	cfg    AgentConfig
	meters []*rapl.Meter
	conn   net.Conn
	sess   *proto.Session
	// writeMu serializes the two upstream writers: report batches from
	// the ticker goroutine and echo frames from the cap-receiving
	// goroutine.
	writeMu sync.Mutex

	reportBuf []power.Watts
	capBuf    []power.Watts
	// lastSent is the per-unit value last put on the wire, in deciwatts
	// (-1: never sent this session). Delta suppression compares against
	// it, so within-epsilon drift can never accumulate past epsilon.
	lastSent []int32
	recs     []proto.Record
	// sinceFull counts reports since the last complete vector went out;
	// at refreshEvery it forces an unsuppressed report.
	sinceFull int
	epsDW     uint16
	reports   atomic.Uint64
	applied   atomic.Uint64
	// lastRound is the newest controller round seen in a cap batch prefix
	// (0 before the first). Read by the report goroutine to tag
	// read/report spans, written by the cap goroutine.
	lastRound atomic.Uint64

	tel    *telemetry.Registry
	am     agentMetrics
	tracer *trace.Recorder
}

// agentMetrics are the node client's registry handles: liveness of the
// report/apply loops plus the reconnect machinery's state, enough to spot
// a flapping agent from a scrape alone.
type agentMetrics struct {
	reports      *telemetry.Counter
	applied      *telemetry.Counter
	reportErrors *telemetry.Counter
	reconnects   *telemetry.Counter
	suppressed   *telemetry.Counter
	heartbeats   *telemetry.Counter
	spans        *telemetry.Counter
	connected    *telemetry.Gauge
	backoff      *telemetry.Gauge
}

func newAgentMetrics(reg *telemetry.Registry) agentMetrics {
	registerBuildInfo(reg)
	return agentMetrics{
		reports:      reg.Counter("dps_agent_reports_total", "Power report batches sent."),
		applied:      reg.Counter("dps_agent_caps_applied_total", "Cap batches received and programmed."),
		reportErrors: reg.Counter("dps_agent_report_errors_total", "Failed meter reads or report sends."),
		reconnects:   reg.Counter("dps_agent_reconnects_total", "Connection attempts after a lost or failed session."),
		suppressed:   reg.Counter("dps_agent_suppressed_readings_total", "Per-unit readings withheld by delta suppression (unchanged within epsilon)."),
		heartbeats:   reg.Counter("dps_agent_heartbeats_total", "Heartbeat frames sent in place of fully-suppressed reports."),
		spans:        reg.Counter("dps_agent_trace_spans_total", "Spans recorded into the agent's trace ring."),
		connected:    reg.Gauge("dps_agent_connected", "1 while a handshaken controller session is live."),
		backoff:      reg.Gauge("dps_agent_backoff_seconds", "Current reconnect backoff (0 while connected)."),
	}
}

// NewAgent builds an agent over the node's devices.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	a := &Agent{
		cfg:       cfg,
		meters:    make([]*rapl.Meter, len(cfg.Devices)),
		reportBuf: make([]power.Watts, len(cfg.Devices)),
		capBuf:    make([]power.Watts, len(cfg.Devices)),
		lastSent:  make([]int32, len(cfg.Devices)),
		recs:      make([]proto.Record, 0, len(cfg.Devices)),
		tel:       reg,
		am:        newAgentMetrics(reg),
		tracer:    trace.NewRecorder(cfg.TraceSpans),
	}
	a.tracer.SetEnabled(cfg.Trace)
	for i, d := range cfg.Devices {
		a.meters[i] = rapl.NewTolerantMeter(d, cfg.meterTolerance())
	}
	return a, nil
}

// Telemetry returns the agent's metrics registry.
func (a *Agent) Telemetry() *telemetry.Registry { return a.tel }

// Trace returns the agent's span recorder (always non-nil; enabled per
// AgentConfig.Trace).
func (a *Agent) Trace() *trace.Recorder { return a.tracer }

// DebugHandler returns the agent's HTTP mux:
//
//	GET /metrics      agent counters in Prometheus text format
//	GET /healthz      200 while a controller session is live
//	GET /debug/trace  agent spans as Chrome trace_event JSON (?n=N)
//
// The concrete mux is returned so the agent binary can mount
// net/http/pprof alongside.
func (a *Agent) DebugHandler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", a.tel.Handler())
	mux.Handle("GET /debug/trace", a.tracer.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if a.am.connected.Value() == 0 {
			http.Error(w, "not connected to a controller", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (a *Agent) logf(format string, args ...any) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, args...)
	}
}

// Handshake introduces the agent on conn and waits for the server's
// acknowledgement. The connection is retained for subsequent rounds. With
// Batch on the delta epsilon resolves here: the local configured value
// when positive, else whatever the server's ack advertised.
func (a *Agent) Handshake(conn net.Conn) error {
	sess, err := proto.Connect(conn, proto.Hello{FirstUnit: a.cfg.FirstUnit, Units: len(a.cfg.Devices)})
	if err != nil {
		conn.Close()
		return fmt.Errorf("daemon: agent handshake: %w", err)
	}
	// Prime the meters so the first report is a real interval average. A
	// priming failure must leave no half-open session behind: close the
	// socket and keep a.conn nil so a reconnecting caller retries from a
	// clean state instead of reusing a connection the server still
	// considers registered.
	for _, m := range a.meters {
		if _, err := m.Read(power.Seconds(a.cfg.Interval.Seconds())); err != nil {
			sess.Release()
			conn.Close()
			return fmt.Errorf("daemon: priming meter: %w", err)
		}
	}
	a.conn = conn
	a.sess = sess
	a.epsDW = 0
	if a.cfg.Batch {
		eps := a.cfg.DeltaEpsilon
		if eps <= 0 {
			eps = sess.DeltaEpsilon()
		}
		a.epsDW = proto.ToDeciwatts(eps)
	}
	// A fresh session starts from nothing: the first report is always a
	// complete vector, whatever the suppression state of the last one.
	for i := range a.lastSent {
		a.lastSent[i] = -1
	}
	a.sinceFull = 0
	a.am.connected.Set(1)
	return nil
}

// ReportOnce reads every local meter over the given elapsed interval and
// sends one power report batch. With tracing on, the meter read and the
// report decision each record a span tagged with the round the report
// will feed: the last round seen on the wire plus one (0+1 until the
// first cap batch arrives).
func (a *Agent) ReportOnce(elapsed power.Seconds) error {
	if a.sess == nil {
		return errors.New("daemon: agent not connected")
	}
	traceOn := a.tracer.On()
	round := a.lastRound.Load() + 1
	var readStart time.Time
	if traceOn {
		readStart = time.Now()
	}
	for i, m := range a.meters {
		w, err := m.Read(elapsed)
		if err != nil {
			a.am.reportErrors.Inc()
			return fmt.Errorf("daemon: reading unit %d: %w", int(a.cfg.FirstUnit)+i, err)
		}
		a.reportBuf[i] = w
	}
	var reportStart time.Time
	if traceOn {
		reportStart = time.Now()
		a.tracer.Record(round, trace.SpanRead, trace.LaneAgent,
			int32(a.cfg.FirstUnit), readStart, reportStart.Sub(readStart))
	}
	a.writeMu.Lock()
	err := a.writeReportLocked()
	a.writeMu.Unlock()
	if err != nil {
		a.am.reportErrors.Inc()
		return fmt.Errorf("daemon: sending report: %w", err)
	}
	if traceOn {
		a.tracer.Record(round, trace.SpanReport, trace.LaneAgent,
			int32(a.cfg.FirstUnit), reportStart, time.Since(reportStart))
		a.am.spans.Add(2)
	}
	a.reports.Add(1)
	a.am.reports.Inc()
	return nil
}

// writeReportLocked sends one report as a batch frame. Without Batch it
// carries every unit. With Batch it is a delta: only units whose reading
// moved past epsilon since their last sent value go on the wire — an
// omitted unit tells the server "unchanged within epsilon, my reading
// stands" — and a fully suppressed interval collapses to a one-byte
// heartbeat so liveness never depends on readings moving. Caller holds
// writeMu.
func (a *Agent) writeReportLocked() error {
	full := !a.cfg.Batch || a.lastSent[0] < 0
	if n := a.cfg.refreshEvery(); n > 0 && a.sinceFull+1 >= n {
		full = true
	}
	recs := a.recs[:0]
	suppressed := 0
	for i, w := range a.reportBuf {
		dw := int32(proto.ToDeciwatts(w))
		if !full && a.lastSent[i] >= 0 && absDelta(dw, a.lastSent[i]) <= int32(a.epsDW) {
			suppressed++
			continue
		}
		recs = append(recs, proto.Record{LocalUnit: uint8(i), Value: uint16(dw)})
		a.lastSent[i] = dw
	}
	if suppressed > 0 {
		a.am.suppressed.Add(uint64(suppressed))
	}
	if len(recs) == len(a.reportBuf) {
		a.sinceFull = 0
	} else {
		a.sinceFull++
	}
	if len(recs) == 0 {
		a.am.heartbeats.Inc()
		return a.sess.WriteHeartbeat()
	}
	return a.sess.WriteDelta(recs)
}

func absDelta(a, b int32) int32 {
	if a < b {
		return b - a
	}
	return a - b
}

// ReceiveCaps blocks for one cap batch from the controller, programs
// every local device and answers with an apply echo. The batch's round
// prefix updates the agent's round clock and tags the cap_apply span —
// the agent-clock twin of the server's RTT-inferred apply span, which is
// what lets a fleet trace merge estimate the clock offset.
func (a *Agent) ReceiveCaps() error {
	if a.sess == nil {
		return errors.New("daemon: agent not connected")
	}
	round, err := a.sess.ReadCapsRound(a.capBuf)
	if err != nil {
		return fmt.Errorf("daemon: receiving caps: %w", err)
	}
	a.lastRound.Store(round)
	applyStart := time.Now()
	for i, c := range a.capBuf {
		if err := a.cfg.Devices[i].SetCap(c); err != nil {
			return fmt.Errorf("daemon: capping unit %d: %w", int(a.cfg.FirstUnit)+i, err)
		}
	}
	applyDur := time.Since(applyStart)
	if a.tracer.On() {
		a.tracer.Record(round, trace.SpanCapApply, trace.LaneAgent,
			int32(a.cfg.FirstUnit), applyStart, applyDur)
		a.am.spans.Inc()
	}
	a.applied.Add(1)
	a.am.applied.Inc()
	a.writeMu.Lock()
	err = a.sess.WriteApplyEcho(applyDur)
	a.writeMu.Unlock()
	if err != nil {
		return fmt.Errorf("daemon: sending apply echo: %w", err)
	}
	return nil
}

// Reports returns the number of report batches sent. Safe to call from
// any goroutine.
func (a *Agent) Reports() uint64 { return a.reports.Load() }

// Applied returns the number of cap batches applied. Safe to call from
// any goroutine.
func (a *Agent) Applied() uint64 { return a.applied.Load() }

// Run drives the agent until ctx is done or the connection fails: a
// reporting ticker on one side, a cap-applying read loop on the other.
// The connection must already be handshaken.
func (a *Agent) Run(ctx context.Context) error {
	if a.sess == nil {
		return errors.New("daemon: agent not connected")
	}
	errc := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)

	go func() {
		defer wg.Done()
		ticker := time.NewTicker(a.cfg.Interval)
		defer ticker.Stop()
		last := time.Now()
		for {
			select {
			case <-ctx.Done():
				errc <- ctx.Err()
				return
			case now := <-ticker.C:
				elapsed := power.Seconds(now.Sub(last).Seconds())
				last = now
				if err := a.ReportOnce(elapsed); err != nil {
					errc <- err
					return
				}
			}
		}
	}()

	go func() {
		defer wg.Done()
		for {
			if err := a.ReceiveCaps(); err != nil {
				errc <- err
				return
			}
		}
	}()

	// Join both directions before returning: a reconnecting caller will
	// reuse the agent's buffers, so no goroutine from this session may
	// outlive it. Only then can the session's scratch go back to the pool.
	err := <-errc
	a.conn.Close()
	wg.Wait()
	a.sess.Release()
	a.sess = nil
	a.am.connected.Set(0)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return nil
	}
	return err
}

// jitteredBackoff spreads a nominal backoff over [backoff/2, backoff)
// (equal jitter). A controller restart disconnects every agent in the
// same instant; without jitter they all redial on the same doubling
// schedule and arrive as a thundering herd, forever synchronized.
func (a *Agent) jitteredBackoff(backoff time.Duration) time.Duration {
	j := a.cfg.ReconnectJitter
	if j == nil {
		j = rand.Float64
	}
	half := backoff / 2
	return half + time.Duration(j()*float64(half))
}

// RunWithReconnectAddrs keeps the agent connected until ctx is done: it
// dials, handshakes, runs, and on any failure retries with jittered
// exponential backoff (baseBackoff doubling up to maxBackoff; each sleep
// is drawn from [backoff/2, backoff) so a cluster of agents
// de-synchronizes after a controller restart). A node whose controller
// restarts rejoins by itself — during the outage its sockets coast on
// their last caps, which is the safe direction (caps can only be stale,
// never absent). Counters (Reports/Applied) accumulate across
// reconnections.
//
// addrs is an ordered controller address list — typically [primary,
// standby]. Each reconnect attempt targets the next address in rotation,
// so when the primary dies and its warm standby takes over (DESIGN.md
// §14), agents land on the standby within a backoff or two with no
// reconfiguration. Dial and handshake are bounded by a deadline: a
// standby that has not taken over yet refuses connections instantly, but
// a half-dead primary that accepts and then hangs must not pin the agent
// to it forever.
func (a *Agent) RunWithReconnectAddrs(ctx context.Context, network string, addrs []string, baseBackoff, maxBackoff time.Duration) error {
	if len(addrs) == 0 {
		return errors.New("daemon: no controller addresses")
	}
	if baseBackoff <= 0 {
		baseBackoff = 250 * time.Millisecond
	}
	if maxBackoff < baseBackoff {
		maxBackoff = 8 * time.Second
	}
	hsTimeout := max(10*a.cfg.Interval, 2*time.Second)
	backoff := baseBackoff
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil
		}
		addr := addrs[attempt%len(addrs)]
		conn, err := net.DialTimeout(network, addr, hsTimeout)
		if err == nil {
			conn.SetDeadline(time.Now().Add(hsTimeout))
			if err = a.Handshake(conn); err == nil {
				conn.SetDeadline(time.Time{})
			}
		}
		if err == nil {
			backoff = baseBackoff
			a.am.backoff.Set(0)
			a.logf("daemon: agent connected to %s", addr)
			err = a.Run(ctx)
			if ctx.Err() != nil {
				return nil
			}
		}
		a.am.reconnects.Inc()
		a.am.backoff.Set(backoff.Seconds())
		a.logf("daemon: agent connection to %s lost (%v); retrying in %v", addr, err, backoff)
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(a.jitteredBackoff(backoff)):
		}
		// With one address this is plain exponential backoff; with several
		// the doubling applies per full rotation, so trying the standby is
		// never slower than retrying the dead primary would have been.
		if attempt%len(addrs) == len(addrs)-1 {
			backoff = min(2*backoff, maxBackoff)
		}
	}
}

// Dial connects, handshakes, and returns a ready agent in one call.
func Dial(network, addr string, cfg AgentConfig) (*Agent, error) {
	a, err := NewAgent(cfg)
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("daemon: dialing controller: %w", err)
	}
	if err := a.Handshake(conn); err != nil {
		return nil, err
	}
	return a, nil
}
