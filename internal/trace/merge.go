package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// This file merges per-process trace exports into one fleet timeline.
// Every dps process — primary, standby, each agent — serves its own
// Chrome trace_event JSON at /debug/trace, each on its own clock. The
// merge puts them in one file with one process ("pid") per dps process,
// after shifting each non-reference process onto the reference clock.
//
// The clock offset needs no extra protocol: the server already records
// an "apply" span for each cap-apply echo, back-dated by the echoed
// apply duration — its start is the server-clock estimate of the moment
// the agent began applying. The agent's own "cap_apply" span records the
// same moment on the agent's clock, and the round every cap batch
// carries makes both name the controller round plus the agent's first
// unit. Matching the pairs
// by (trace_id, unit) and taking the median of (server start − agent
// start) estimates the offset with the push latency as error — small,
// and median-robust against stragglers.

// Event is one Chrome trace_event entry as exported by WriteTraceEvents
// (and accepted by Perfetto): "X" complete events for spans, "M"
// metadata events for process/thread names. Field meanings and JSON tags
// mirror the trace_event format; Ts and Dur are microseconds.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Ts   float64        `json:"ts,omitempty"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ParseEvents decodes one process's /debug/trace export (a traceFile
// object, or a bare event array for tolerance).
func ParseEvents(data []byte) ([]Event, error) {
	var file struct {
		TraceEvents []Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err == nil && file.TraceEvents != nil {
		return file.TraceEvents, nil
	}
	var events []Event
	if err := json.Unmarshal(data, &events); err != nil {
		return nil, fmt.Errorf("trace: not a trace_event export: %w", err)
	}
	return events, nil
}

// Process is one process's contribution to a merged trace.
type Process struct {
	// Name labels the process in the merged timeline (e.g. its address).
	Name   string
	Events []Event
}

// anchorKey identifies one cap-apply observation: the controller round
// and the agent's first unit, both carried in span args.
type anchorKey struct {
	trace uint64
	unit  int64
}

// argNum extracts a numeric arg (JSON numbers decode as float64; events
// built in-process may hold native integer types).
func argNum(args map[string]any, key string) (int64, bool) {
	switch v := args[key].(type) {
	case float64:
		return int64(v), true
	case int64:
		return v, true
	case uint64:
		return int64(v), true
	case int:
		return int64(v), true
	case int32:
		return int64(v), true
	default:
		return 0, false
	}
}

// anchors collects name-matching spans keyed by (trace_id, unit). Spans
// with round 0 (an agent's spans before its first cap batch) name no
// controller round and cannot anchor anything.
func anchors(events []Event, name string) map[anchorKey]float64 {
	out := make(map[anchorKey]float64)
	for _, ev := range events {
		if ev.Ph != "X" || ev.Name != name {
			continue
		}
		tr, ok := argNum(ev.Args, "trace_id")
		if !ok || tr == 0 {
			continue
		}
		unit, ok := argNum(ev.Args, "unit")
		if !ok {
			unit = -1
		}
		out[anchorKey{trace: uint64(tr), unit: unit}] = ev.Ts
	}
	return out
}

// EstimateOffsetUS estimates how far proc's clock is behind ref's, in
// microseconds: add the offset to proc timestamps to place them on ref's
// timeline. It matches ref's RTT-inferred "apply" spans against proc's
// locally-clocked "cap_apply" spans by (controller round, first unit)
// and returns the median difference. ok is false when no pair matches —
// the processes share no rounds — in which case spans can
// only be merged unaligned.
func EstimateOffsetUS(ref, proc []Event) (offsetUS float64, ok bool) {
	serverSide := anchors(ref, SpanApply)
	agentSide := anchors(proc, SpanCapApply)
	var diffs []float64
	for k, agentTs := range agentSide {
		if serverTs, found := serverSide[k]; found {
			diffs = append(diffs, serverTs-agentTs)
		}
	}
	if len(diffs) == 0 {
		return 0, false
	}
	sort.Float64s(diffs)
	return diffs[len(diffs)/2], true
}

// Merge writes one merged Chrome trace for the given processes.
// procs[0] is the reference timeline (offset zero, pid 1); every later
// process is clock-shifted onto it via EstimateOffsetUS (left unshifted
// when no anchor pair matches) and assigned pid i+1. Per-process
// metadata events are rewritten to the assigned pid, with a
// process_name event labeling each process, and span events are sorted
// by aligned timestamp so the output is deterministic for a given input.
func Merge(w io.Writer, procs []Process) error {
	var meta, spans []Event
	for i, p := range procs {
		pid := i + 1
		var offset float64
		if i > 0 {
			offset, _ = EstimateOffsetUS(procs[0].Events, p.Events)
		}
		meta = append(meta, Event{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": p.Name},
		})
		for _, ev := range p.Events {
			ev.Pid = pid
			switch ev.Ph {
			case "M":
				if ev.Name == "process_name" {
					continue // replaced by the labeled event above
				}
				meta = append(meta, ev)
			default:
				ev.Ts += offset
				spans = append(spans, ev)
			}
		}
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Ts < spans[j].Ts })
	out := struct {
		TraceEvents     []Event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{TraceEvents: append(meta, spans...), DisplayTimeUnit: "ms"}
	if out.TraceEvents == nil {
		out.TraceEvents = []Event{}
	}
	return json.NewEncoder(w).Encode(out)
}
