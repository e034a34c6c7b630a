// Package trace is the control loop's causal debugging layer: a
// dependency-free, ring-buffered span recorder whose traces are scoped to
// decision rounds, plus the cap-provenance vocabulary that names *why* a
// unit's cap moved.
//
// The paper's algorithms are causal — Algorithm 1 cuts and raises,
// Algorithm 3 restores, Algorithm 4 grants or equalizes — and §6.5's
// overhead argument is about what one round costs end to end. Aggregate
// metrics (internal/telemetry) answer "how much"; this package answers
// "which module, in which round, for how long": every pipeline stage and
// every wire hop records a span carrying the round number as its trace ID,
// in the spirit of Dapper-style request tracing, and the recorder exports
// Chrome trace_event JSON that loads directly in Perfetto or
// chrome://tracing.
//
// The recorder is built to be free when off: On() is a nil-safe atomic
// load, no instrumentation site allocates or takes a lock unless the
// recorder is enabled, and the guard test in internal/core pins the warm
// decision round at 0 allocs/op with tracing disabled. Like the rest of
// the repository, nothing here imports outside the standard library.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Reason names the algorithm-level cause of one unit's cap change within a
// decision round — the vocabulary of cap provenance. The zero value means
// the cap did not move.
type Reason uint8

const (
	// ReasonNone: no module changed this unit's cap this round.
	ReasonNone Reason = iota
	// ReasonMIMDCut: Algorithm 1 cut the cap of a unit drawing well below
	// it (releasing budget).
	ReasonMIMDCut
	// ReasonMIMDRaise: Algorithm 1 raised the cap of a unit pressing
	// against it.
	ReasonMIMDRaise
	// ReasonRestore: Algorithm 3 reset the cap to the constant cap because
	// every unit in the system went quiet.
	ReasonRestore
	// ReasonReadjustGrant: Algorithm 4's budget-available branch granted
	// leftover budget to a high-priority unit.
	ReasonReadjustGrant
	// ReasonEqualize: Algorithm 4's exhausted-budget branch equalized
	// high-priority caps (or reclaimed low-priority surplus to do so).
	ReasonEqualize
	// ReasonHealthPin: the degraded-mode controller pinned a non-fresh
	// unit back to the cap its agent is still enforcing.
	ReasonHealthPin
	// ReasonDegradedDeliver: the daemon's delivery-side safety net pinned
	// the cap of a non-fresh unit on behalf of a health-blind manager.
	ReasonDegradedDeliver
	// ReasonClamp: the final safety clamp moved the cap (hardware-limit
	// clamping or the proportional budget rescale). The pipeline maintains
	// the budget invariant, so this should account for floating-point
	// drift only.
	ReasonClamp

	reasonCount
)

var reasonNames = [reasonCount]string{
	"none", "mimd_cut", "mimd_raise", "restore", "readjust_grant",
	"equalize", "health_pin", "degraded_deliver", "clamp",
}

// String returns the snake_case reason name used in flight-recorder rows
// and the /debug/why endpoint.
func (r Reason) String() string {
	if r >= reasonCount {
		return "unknown"
	}
	return reasonNames[r]
}

// Display lanes. Spans are laid out one lane ("thread" in the Chrome
// trace model) per subsystem so a round reads left to right in Perfetto:
// the agent's meter read, the server's ingest, the four decision stages,
// the push, and the agent's cap apply.
const (
	// LaneDecide holds the controller's per-round pipeline stages.
	LaneDecide int32 = iota
	// LaneIngest holds per-connection report read/sanitize spans.
	LaneIngest
	// LanePush holds per-connection cap push spans.
	LanePush
	// LaneAgent holds agent-side spans (meter read, cap apply).
	LaneAgent
	// LaneSim holds the simulator's per-step spans.
	LaneSim

	laneCount
)

var laneNames = [laneCount]string{"decide", "ingest", "push", "agent", "sim"}

// Canonical span names, one per instrumented step of the
// read→ingest→decide→push→apply path. Instrumentation sites must use
// static strings (these constants) so recording never allocates.
const (
	SpanRead      = "read"       // agent: meter read for one report
	SpanReport    = "report"     // agent: suppression decision + report write
	SpanIngest    = "ingest"     // server: sanitize+store one report batch
	SpanKalman    = "kalman"     // core: filtering plus history push
	SpanStateless = "stateless"  // core: Algorithm 1
	SpanPriority  = "priority"   // core: Algorithm 2
	SpanReadjust  = "readjust"   // core: Algorithms 3/4
	SpanHealthPin = "health_pin" // core: degraded-round pinning
	SpanDecide    = "decide"     // core: the whole decision round
	SpanPush      = "push"       // server: cap batch write to one agent
	SpanApply     = "apply"      // server: agent apply, inferred from the echo RTT
	SpanCapApply  = "cap_apply"  // agent: programming received caps, on the agent's clock
	SpanSimStep   = "sim_step"   // sim: one discrete step (machine+controller)
)

// Span is one recorded interval. Trace is the round-scoped trace ID (the
// decision round the span belongs to), Unit an optional unit attribution
// (-1 when the span covers many units), Start/Dur wall-clock nanoseconds.
type Span struct {
	Trace uint64
	Name  string
	Lane  int32
	Unit  int32
	Start int64 // ns since the Unix epoch
	Dur   int64 // ns
}

// Recorder is a fixed-capacity ring buffer of spans, safe for concurrent
// use. A nil *Recorder is a valid always-off recorder, so instrumented
// code guards every site with On() and needs no nil checks of its own.
type Recorder struct {
	enabled atomic.Bool

	mu    sync.Mutex
	buf   []Span
	n     int    // valid spans
	next  int    // slot the next Record writes
	total uint64 // lifetime records
}

// DefaultSpanCapacity holds roughly five minutes of a one-second control
// loop at ~12 spans per round.
const DefaultSpanCapacity = 4096

// NewRecorder returns a disabled recorder holding at most capacity spans
// (DefaultSpanCapacity if capacity <= 0). Enable it with SetEnabled.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &Recorder{buf: make([]Span, capacity)}
}

// SetEnabled turns recording on or off. Disabling does not discard
// already-recorded spans.
func (r *Recorder) SetEnabled(on bool) { r.enabled.Store(on) }

// On reports whether spans should be recorded. It is nil-safe and
// lock-free: the hot path's only tracing cost when off.
func (r *Recorder) On() bool { return r != nil && r.enabled.Load() }

// Record appends one span, evicting the oldest when full. Callers pass
// static name strings and pre-taken timestamps, so a Record call never
// allocates. Calls on a nil or disabled recorder are dropped (Record
// tolerates racing a SetEnabled(false)).
func (r *Recorder) Record(traceID uint64, name string, lane, unit int32, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = Span{
		Trace: traceID,
		Name:  name,
		Lane:  lane,
		Unit:  unit,
		Start: start.UnixNano(),
		Dur:   int64(dur),
	}
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	if r.n < len(r.buf) {
		r.n++
	}
	r.total++
	r.mu.Unlock()
}

// Len returns the number of spans currently held.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Total returns the lifetime number of recorded spans (>= Len once the
// ring evicts).
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Last returns up to n spans in record order (oldest of the selection
// first). n <= 0 means all held spans.
func (r *Recorder) Last(n int) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > r.n {
		n = r.n
	}
	if n == 0 {
		return nil
	}
	out := make([]Span, n)
	// next-1 is the newest; the selection starts n-1 spans before it.
	first := r.next - n
	if first < 0 {
		first += len(r.buf)
	}
	for i := 0; i < n; i++ {
		j := first + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		out[i] = r.buf[j]
	}
	return out
}

// traceEvent is one entry of the Chrome trace_event format ("X" complete
// events for spans, "M" metadata events for lane names), the JSON
// Perfetto and chrome://tracing load natively.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Ts   float64        `json:"ts,omitempty"`  // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON object form of the trace_event format.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTraceEvents renders the newest lastN spans (all held if lastN <= 0)
// as Chrome trace_event JSON. Every span becomes a complete ("X") event
// with its round as args.trace_id, preceded by metadata events naming the
// lanes, so the export opens in Perfetto with one named track per
// subsystem.
func (r *Recorder) WriteTraceEvents(w io.Writer, lastN int) error {
	spans := r.Last(lastN)
	tf := traceFile{DisplayTimeUnit: "ms", TraceEvents: make([]traceEvent, 0, len(spans)+int(laneCount)+1)}
	tf.TraceEvents = append(tf.TraceEvents, traceEvent{
		Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "dps"},
	})
	for lane := int32(0); lane < laneCount; lane++ {
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: lane,
			Args: map[string]any{"name": laneNames[lane]},
		})
	}
	for _, sp := range spans {
		ev := traceEvent{
			Name: sp.Name,
			Cat:  "dps",
			Ph:   "X",
			Pid:  1,
			Tid:  sp.Lane,
			Ts:   float64(sp.Start) / 1e3,
			Dur:  float64(sp.Dur) / 1e3,
			Args: map[string]any{"trace_id": sp.Trace},
		}
		if sp.Unit >= 0 {
			ev.Args["unit"] = sp.Unit
		}
		tf.TraceEvents = append(tf.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tf)
}

// CountParam parses a positive record-count limit from a debug
// endpoint's query. The canonical parameter is n; last is accepted as an
// alias (the two debug endpoints historically disagreed on the
// spelling). Malformed values and supplying both spellings are a 400,
// written to w; ok is false when the caller should return without
// serving. An absent parameter yields the given default.
func CountParam(w http.ResponseWriter, req *http.Request, def int) (n int, ok bool) {
	q := req.URL.Query()
	nq, lq := q.Get("n"), q.Get("last")
	if nq != "" && lq != "" {
		http.Error(w, "specify n or last (n is canonical), not both", http.StatusBadRequest)
		return 0, false
	}
	if nq == "" {
		nq = lq
	}
	if nq == "" {
		return def, true
	}
	v, err := strconv.Atoi(nq)
	if err != nil || v <= 0 {
		http.Error(w, "n must be a positive integer", http.StatusBadRequest)
		return 0, false
	}
	return v, true
}

// Handler serves the recorder for mounting at GET /debug/trace. The
// optional query parameter n (canonical; last is an accepted alias)
// limits the export to the newest N spans (default: all held). The
// response downloads as trace.json so it can be dragged straight into
// ui.perfetto.dev.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		n, ok := CountParam(w, req, 0)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
		if err := r.WriteTraceEvents(w, n); err != nil {
			http.Error(w, fmt.Sprintf("rendering trace: %v", err), http.StatusInternalServerError)
		}
	})
}
