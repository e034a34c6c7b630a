package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// Harness-side spans. They are recorded from outside the system, around the
// calls into each layer's public functions; the round number is the id every
// span of a round shares. Nesting:
//
//	round ⊃ agent.report[a] · daemon.ingest_wait ·
//	        daemon.decide_once ⊃ core.decide ⊃ core.{kalman,stateless,priority,readjust}
//	      · agent.apply[a] · daemon.echo_wait
//
// core.* spans are synthesised from what DecideOnce publishes about itself
// (dps_decide_seconds and dps_stage_seconds sums): their durations are the
// server's own measurements, their offsets inside decide_once are laid out
// in pipeline order.
type spanKind uint8

const (
	spanRound spanKind = iota
	spanReport
	spanIngestWait
	spanDecideOnce
	spanCoreDecide
	spanKalman
	spanStateless
	spanPriority
	spanReadjust
	spanApply
	spanEchoWait
	spanKinds
)

var spanNames = [spanKinds]string{
	"round", "agent.report", "daemon.ingest_wait", "daemon.decide_once", "core.decide",
	"core.kalman", "core.stateless", "core.priority", "core.readjust", "agent.apply", "daemon.echo_wait",
}

// spanLane is the Chrome-trace thread a span is drawn on; spans on one lane
// nest by containment.
var spanLane = [spanKinds]int{0, 1, 2, 2, 3, 3, 3, 3, 3, 1, 2}

var laneNames = []string{"round", "agent", "daemon", "core"}

type span struct {
	kind       spanKind
	agent      int32
	round      uint32
	start, end int64 // ns since the tracer's base
}

// roundRow is one traced round reduced to per-layer durations (ns) and the
// counts read at the same boundaries.
type roundRow struct {
	roundNo uint64 // the server's round counter: the id the round's spans share
	block   int
	ns      [spanKinds]int64
	harness int64
	dirty   float64
	skipped float64
}

type tracer struct {
	base  time.Time
	spans []span
	rows  []roundRow

	round       uint32
	block       int
	decideStart int64
	harnessNS   int64

	prevDecide float64
	prevStage  [4]float64
}

func newTracer(rounds, agents int) *tracer {
	return &tracer{
		base:  time.Now(),
		spans: make([]span, 0, rounds*(2*agents+int(spanKinds))),
		rows:  make([]roundRow, 0, rounds),
	}
}

// span closes a span that began at prev and returns its end, which is the
// next span's start: the spans of a round tile it without gaps.
func (tr *tracer) span(k spanKind, agent int, prev time.Time) time.Time {
	now := time.Now()
	tr.spanAt(k, agent, prev, now)
	return now
}

func (tr *tracer) spanAt(k spanKind, agent int, start, end time.Time) {
	s := span{kind: k, agent: int32(agent), round: tr.round, start: int64(start.Sub(tr.base)), end: int64(end.Sub(tr.base))}
	if k == spanDecideOnce {
		tr.decideStart = s.start
	}
	tr.spans = append(tr.spans, s)
}

// begin opens a traced round: it reads the server's cumulative timing sums,
// so that core sees only this round's share of them.
func (tr *tracer) begin(f *fleet) {
	tr.prevDecide = f.decideHist.Sum()
	for i, h := range f.stageHist {
		tr.prevStage[i] = h.Sum()
	}
}

// core synthesises the core.* spans of the round just decided.
func (tr *tracer) core(f *fleet) {
	at := tr.decideStart
	sum := f.decideHist.Sum()
	d := int64((sum - tr.prevDecide) * 1e9)
	tr.prevDecide = sum
	tr.spans = append(tr.spans, span{kind: spanCoreDecide, agent: -1, round: tr.round, start: at, end: at + d})
	for i, h := range f.stageHist {
		sum := h.Sum()
		d := int64((sum - tr.prevStage[i]) * 1e9)
		tr.prevStage[i] = sum
		tr.spans = append(tr.spans, span{kind: spanKalman + spanKind(i), agent: -1, round: tr.round, start: at, end: at + d})
		at += d
	}
	tr.rows = append(tr.rows, roundRow{roundNo: f.srv.Rounds(), block: tr.block, dirty: f.dirtyUnits.Value(), skipped: f.skipUnits.Value()})
}

func (tr *tracer) harness(d time.Duration) { tr.harnessNS += int64(d) }

func (tr *tracer) endRound() {
	tr.rows[len(tr.rows)-1].harness = tr.harnessNS
	tr.harnessNS = 0
	tr.round++
}

// reduce folds the recorded spans into the per-round rows.
func (tr *tracer) reduce() {
	for _, s := range tr.spans {
		tr.rows[s.round].ns[s.kind] += s.end - s.start
	}
}

// writeChrome writes the first maxRounds traced rounds as Chrome trace_event
// JSON (ui.perfetto.dev and chrome://tracing load it as is).
func (tr *tracer) writeChrome(path string, maxRounds uint32) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(file)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for lane, name := range laneNames {
		if lane > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n"+`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, lane, name)
	}
	for _, s := range tr.spans {
		if s.round >= maxRounds {
			break
		}
		fmt.Fprintf(w, ",\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"round":%d`,
			spanNames[s.kind], spanLane[s.kind], float64(s.start)/1e3, float64(s.end-s.start)/1e3, tr.rows[s.round].roundNo)
		if s.agent >= 0 {
			fmt.Fprintf(w, `,"agent":%d`, s.agent)
		}
		fmt.Fprint(w, "}}")
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
