package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"dps/internal/core"
	"dps/internal/daemon"
	"dps/internal/snapshot"
)

// processStart approximates process start; package initialisation runs
// within a millisecond of it.
var processStart = time.Now()

// tracedBlocks is how many calibration blocks of a traced run record spans
// (on every other round; see measure).
const tracedBlocks = 20

type options struct {
	dir     string // the benchmark's directory (configs/, out/)
	seed    int64
	seconds int
	trace   bool
}

// factor converts a wall time measured between two kernel runs into
// reference-host units.
func factor(a, b hostCal) float64 { return calibRefMS / ((a.wallMS + b.wallMS) / 2) }

func cpuFactor(a, b hostCal) float64 { return calibRefMS / ((a.cpuMS + b.cpuMS) / 2) }

// postFactor is factor for the after-the-loop measurements: the geometric
// mean of the whole kernel's factor and its latency-bound half's, which
// follows the clock but not a neighbour. Those paths split two ways under a
// busy neighbour — a scrape or a decode slows with the whole kernel, a
// restore (its PRNG replay is one dependent chain) hardly at all — and half
// the kernel's sensitivity is the yardstick that serves both. Same-seed A/A
// under contention, spread of takeover_ms on dense16k / ops16k / nodes1k:
// 15 / 20 / 9 % against the whole kernel, 6 / 11 / 8 % against this;
// scrape_ms 8 / 4 / 5 % and 7 / 10 / 3 %.
func postFactor(a, b hostCal) float64 {
	latency := calibRefLatencyMS / ((a.latencyMS + b.latencyMS) / 2)
	return math.Sqrt(factor(a, b) * latency)
}

// block is one calibration block of the timed phase: blockRounds rounds
// between two runs of the host-calibration kernel.
type block struct {
	before, after hostCal
	roundMS       []float64 // raw wall time of each untraced round
	tracedMS      []float64 // raw wall time of each traced round
	cpuMS         float64   // raw process CPU over the block's rounds
}

// blockDump is a block as the result file shows it: the raw numbers every
// calibrated metric was derived from.
type blockDump struct {
	RoundRawP50MS  float64 `json:"round_raw_p50_ms"`
	RoundRawP25MS  float64 `json:"round_raw_p25_ms"`
	CPURawMS       float64 `json:"cpu_raw_ms_per_round"`
	KernelBeforeMS float64 `json:"kernel_before_ms"`
	KernelAfterMS  float64 `json:"kernel_after_ms"`
	// Contention is the throughput-bound over the latency-bound half of
	// the kernel runs around the block; it rises when a neighbour is busy
	// on the same core.
	Contention float64 `json:"contention"`
}

// result is everything one run of one workload measured.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`
	Status   string `json:"status"` // "ok", or "unresolved" when the host was too unsteady to trust
	Rounds   int    `json:"timed_rounds"`

	OpsTotal  uint64   `json:"ops_total"`
	OpsFailed uint64   `json:"ops_failed"`
	Failures  []string `json:"failures,omitempty"`
	// CapsDigest covers every timed round; CapsDigestPrefix the first
	// digestPrefixRounds of them, which a traced and an untraced run of one
	// seed share whatever --seconds says.
	CapsDigest       string `json:"caps_digest"`
	CapsDigestPrefix string `json:"caps_digest_prefix"`

	EndToEnd map[string]metric `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer"`

	Provenance provenance           `json:"provenance"`
	Blocks     []blockDump          `json:"blocks"`
	DebugSegs  []map[string]float64 `json:"debug_segs"`
	TraceFile  string               `json:"trace_file,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quietQuantile is the quantile taken of the round times of one block (and
// of the repetitions of one after-the-loop segment) before the median over
// blocks. A busy neighbour only ever adds time, in bursts shorter than a
// block; the lower quartile of twenty rounds doing the same work sheds the
// bursts where the median moves with their share. Same-seed A/A on a visibly
// contended host, spread of the calibrated round time: median-of-medians
// 14.5 % / 25 % / 9.6 % (nodes1k / ops16k / dense16k), this 8.6 % / 13.6 % /
// 7.6 %.
const quietQuantile = 0.25

// unresolvedSpread is the p90/p10 ratio of a run's kernel times beyond which
// the run is labelled unresolved. A neighbour coming and going on the core
// moves the kernel by 1.6; twice and a half means the host was doing something
// the calibration was never sized for.
const unresolvedSpread = 2.5

// digestPrefixRounds is the length of the digest prefix: the shortest timed
// phase any run has.
const digestPrefixRounds = 2 * blockRounds

func readAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// procStatusKB reads one "Vm*" line of /proc/self/status in KiB.
func procStatusKB(key string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, key+":") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				v, _ := strconv.ParseFloat(f[1], 64)
				return v
			}
		}
	}
	return 0
}

// runWorkload runs one workload start to finish in this process.
func runWorkload(s spec, opt options) (*result, error) {
	stat0 := readProcStat()
	cal := newCalibrator()
	tmp := filepath.Join(opt.dir, "out", fmt.Sprintf("tmp-%s-%d", s.name, os.Getpid()))
	f, err := newFleet(s, opt.dir, opt.seed, tmp)
	if err != nil {
		return nil, err
	}
	res, err := measure(f, cal, opt)
	if cerr := f.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	res.Provenance = collectProvenance(opt.dir, stat0)
	return res, nil
}

func measure(f *fleet, cal *calibrator, opt options) (*result, error) {
	s := f.spec
	res := &result{Workload: s.name, Seed: opt.seed, Seconds: opt.seconds, Traced: opt.trace, Status: "ok",
		EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}}

	// ---- set-up: construction and handshakes are behind us; warm up to a
	// steady heap. Set-up time is summed piecewise in reference-host units,
	// each stretch against the kernel runs around it, kernels excluded.
	k := cal.measure()
	setupRefMS := ms(time.Since(processStart)-time.Duration(k.wallMS*1e6)) * calibRefMS / k.wallMS
	for done := 0; done < s.warmup; {
		n := min(blockRounds, s.warmup-done)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := f.round(nil); err != nil {
				return nil, err
			}
		}
		wall := ms(time.Since(t0))
		next := cal.measure()
		setupRefMS += wall * factor(k, next)
		k = next
		done += n
	}
	t0 := time.Now()
	runtime.GC()
	timed := s.timedRounds(opt.seconds)
	var tr *tracer
	if opt.trace {
		tr = newTracer(tracedBlocks*blockRounds/2, len(f.agents))
	}
	if f.ops != nil {
		f.ops.sampleNS = make([]int64, 0, timed)
	}
	blocks := make([]block, timed/blockRounds)
	for b := range blocks {
		blocks[b].roundMS = make([]float64, 0, blockRounds)
		blocks[b].tracedMS = make([]float64, 0, blockRounds/2)
	}
	setupRefMS += ms(time.Since(t0)) * calibRefMS / k.wallMS
	res.EndToEnd["setup_s"] = metric{setupRefMS / 1e3, "s"}

	// ---- timed phase
	f.digest = fnvOffset
	start := f.snapshotCounters()
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	var prefixDigest, allocBytes uint64
	var images []string
	for b := range blocks {
		bl := &blocks[b]
		bl.before = k
		alloc0 := readAllocBytes()
		cpu0 := processCPU()
		for i := 0; i < blockRounds; i++ {
			// A traced run records spans on every other round of its first
			// tracedBlocks blocks: neighbouring rounds do nearly the same
			// work under the same host conditions, so the traced-minus-
			// untraced difference is the tracing overhead. The parity flips
			// from block to block so that neither kind always follows the
			// operator reads ops16k makes every tenth round.
			if tr != nil && b < tracedBlocks && (i+b)%2 == 1 {
				tr.block = b
				d, err := f.round(tr)
				if err != nil {
					return nil, err
				}
				bl.tracedMS = append(bl.tracedMS, ms(d))
				continue
			}
			d, err := f.round(nil)
			if err != nil {
				return nil, err
			}
			bl.roundMS = append(bl.roundMS, ms(d))
		}
		bl.cpuMS = ms(processCPU() - cpu0)
		allocBytes += readAllocBytes() - alloc0
		// Takeover images are taken at takeoverImages evenly spaced block
		// ends, the last one at the end (see takeoverImages).
		if (b+1)*takeoverImages/len(blocks) > len(images) {
			img, err := f.exportImage(len(images))
			if err != nil {
				return nil, err
			}
			images = append(images, img)
		}
		k = cal.measure()
		bl.after = k
		if (b+1)*blockRounds == digestPrefixRounds {
			prefixDigest = f.digest
		}
	}
	end := f.snapshotCounters()
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	rssPeakKB := procStatusKB("VmHWM")

	res.Rounds = timed
	res.OpsTotal = uint64(timed) * uint64(s.units)
	res.CapsDigest = fmt.Sprintf("%016x", f.digest)
	res.CapsDigestPrefix = fmt.Sprintf("%016x", prefixDigest)

	// ---- reduce the timed phase
	rounds := float64(timed)
	var quiet, p50s, cpus, rawRounds, kWall, contention, tracedMS, pairedMS []float64
	kWall = append(kWall, blocks[0].before.wallMS)
	for b := range blocks {
		bl := &blocks[b]
		kWall = append(kWall, bl.after.wallMS)
		rawRounds = append(rawRounds, bl.roundMS...)
		fac := factor(bl.before, bl.after)
		quiet = append(quiet, quantile(bl.roundMS, quietQuantile)*fac)
		p50s = append(p50s, median(bl.roundMS)*fac)
		cpus = append(cpus, bl.cpuMS/blockRounds*cpuFactor(bl.before, bl.after))
		if len(bl.tracedMS) > 0 {
			for _, v := range bl.tracedMS {
				tracedMS = append(tracedMS, v*fac)
			}
			for _, v := range bl.roundMS {
				pairedMS = append(pairedMS, v*fac)
			}
		}
		c := (bl.before.throughMS + bl.after.throughMS) / (bl.before.latencyMS + bl.after.latencyMS)
		contention = append(contention, c)
		res.Blocks = append(res.Blocks, blockDump{RoundRawP50MS: median(bl.roundMS), RoundRawP25MS: quantile(bl.roundMS, quietQuantile), CPURawMS: bl.cpuMS / blockRounds,
			KernelBeforeMS: bl.before.wallMS, KernelAfterMS: bl.after.wallMS, Contention: c})
	}
	kMed := median(kWall)
	res.EndToEnd["round_ms"] = metric{median(quiet), "ms"}
	res.EndToEnd["cpu_ms_per_round"] = metric{mean(cpus), "ms"}
	res.EndToEnd["alloc_mb_per_round"] = metric{float64(allocBytes) / rounds / (1 << 20), "MB"}
	res.EndToEnd["rss_peak_mb"] = metric{rssPeakKB / 1024, "MB"}
	wire := float64(end.up-start.up) + float64(end.down-start.down)
	res.EndToEnd["wire_kb_per_round"] = metric{wire / rounds / 1024, "kB"}

	pl := res.PerLayer
	set := func(name string, v float64, unit string) { pl[name] = metric{v, unit} }
	agents := float64(len(f.agents))
	suppressed := float64(end.suppressed-start.suppressed) / rounds
	set("agent.records_per_round", float64(s.units)-suppressed, "count")
	set("agent.suppressed_per_round", suppressed, "count")
	set("agent.heartbeats_per_round", float64(end.heartbeats-start.heartbeats)/rounds, "count")
	set("proto.up_kb_per_round", float64(end.up-start.up)/rounds/1024, "kB")
	set("proto.down_kb_per_round", float64(end.down-start.down)/rounds/1024, "kB")
	// Upstream report/heartbeat and echo frames, downstream one cap batch
	// per agent.
	set("proto.frames_per_round", float64(end.frames-start.frames)/rounds+2*agents, "count")
	set("daemon.ingest_records_per_round", float64(end.records-start.records)/rounds, "count")
	set("snapshot.assemble_ms_per_round", (end.snapSum-start.snapSum)*1e3/rounds*calibRefMS/kMed, "ms")
	set("blackbox.kb_per_round", float64(end.bbBytes-start.bbBytes)/rounds/1024, "kB")
	set("blackbox.dropped_rounds", float64(f.mustBeZero["dps_blackbox_dropped_rounds_total"].Value()), "count")
	set("core.budget_clamp_rounds", float64(f.budgetClamps.Value()), "count")
	set("replicate.kb_per_round", float64(end.replBytes-start.replBytes)/rounds/1024, "kB")
	set("replicate.frames_per_round", float64(end.replFrames-start.replFrames)/rounds, "count")
	set("trace.spans_per_round", float64(end.spans-start.spans)/rounds, "count")
	if f.ops != nil {
		ns := make([]float64, len(f.ops.sampleNS))
		for i, v := range f.ops.sampleNS {
			ns[i] = float64(v) / 1e6
		}
		set("series.sample_ms", median(ns)*calibRefMS/kMed, "ms")
		fired := 0
		for _, a := range f.srv.Watcher().Alerts() {
			fired += int(a.FiredCount)
		}
		set("watch.alerts_fired", float64(fired), "count")
	} else {
		set("series.sample_ms", 0, "ms")
		set("watch.alerts_fired", 0, "count")
	}
	set("loop.rounds", rounds, "count")
	set("loop.round_ms_p50", median(p50s), "ms")
	set("loop.round_raw_ms_p50", median(rawRounds), "ms")
	set("loop.round_ms_p99", quantile(rawRounds, 0.99)*calibRefMS/kMed, "ms")
	set("loop.host_calib_ms_p50", kMed, "ms")
	spread := quantile(kWall, 0.9) / quantile(kWall, 0.1)
	set("loop.host_calib_spread", spread, "ratio")
	set("loop.host_contention_p50", median(contention), "ratio")
	if spread > unresolvedSpread {
		res.Status = "unresolved"
	}
	set("loop.gc_cycles", float64(gc1.NumGC-gc0.NumGC), "count")
	set("loop.gc_pause_ms_total", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6, "ms")
	set("loop.doorbell_rings_per_round", float64(end.rings-start.rings)/rounds, "count")
	set("loop.doorbell_timer_fallbacks", float64(f.bell.fallbacks), "count")
	reduceTrace(res, tr, blocks, tracedMS, pairedMS)

	// ---- after the loop: scrape, operator reads, snapshot codec, takeover
	if err := postPhase(f, cal, res, images); err != nil {
		return nil, err
	}

	f.checkExit()
	res.OpsFailed = f.failed
	res.Failures = f.failures
	if tr != nil {
		out := filepath.Join(opt.dir, "out")
		res.TraceFile = filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", s.name, opt.seed))
		if err := tr.writeChrome(res.TraceFile, 2*blockRounds); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// layerRows are the per-layer timing rows a traced round is reduced to, each
// from the round's span totals v (reference-host ms).
var layerRows = []struct {
	name string
	of   func(v func(spanKind) float64) float64
}{
	{"agent.report_ms", func(v func(spanKind) float64) float64 { return v(spanReport) }},
	{"agent.apply_ms", func(v func(spanKind) float64) float64 { return v(spanApply) }},
	{"daemon.ingest_wait_ms", func(v func(spanKind) float64) float64 { return v(spanIngestWait) }},
	{"daemon.echo_wait_ms", func(v func(spanKind) float64) float64 { return v(spanEchoWait) }},
	{"daemon.decide_once_ms", func(v func(spanKind) float64) float64 { return v(spanDecideOnce) }},
	{"daemon.decide_overhead_ms", func(v func(spanKind) float64) float64 { return v(spanDecideOnce) - v(spanCoreDecide) }},
	{"core.decide_ms", func(v func(spanKind) float64) float64 { return v(spanCoreDecide) }},
	{"core.kalman_ms", func(v func(spanKind) float64) float64 { return v(spanKalman) }},
	{"core.stateless_ms", func(v func(spanKind) float64) float64 { return v(spanStateless) }},
	{"core.priority_ms", func(v func(spanKind) float64) float64 { return v(spanPriority) }},
	{"core.readjust_ms", func(v func(spanKind) float64) float64 { return v(spanReadjust) }},
	{"core.other_ms", func(v func(spanKind) float64) float64 {
		return v(spanCoreDecide) - v(spanKalman) - v(spanStateless) - v(spanPriority) - v(spanReadjust)
	}},
	{"loop.round_traced_ms_p50", func(v func(spanKind) float64) float64 { return v(spanRound) }},
}

// reduceTrace turns the traced rounds' spans into the per-layer timing rows.
// An untraced run reports them as zero: two timestamps per round cannot
// attribute time to layers.
func reduceTrace(res *result, tr *tracer, blocks []block, tracedMS, pairedMS []float64) {
	cols := make([][]float64, len(layerRows))
	var harness, dirty, skipped []float64
	if tr != nil {
		tr.reduce()
		for _, row := range tr.rows {
			bl := blocks[row.block]
			fac := factor(bl.before, bl.after) / 1e6
			v := func(k spanKind) float64 { return float64(row.ns[k]) * fac }
			for i, lr := range layerRows {
				cols[i] = append(cols[i], lr.of(v))
			}
			harness = append(harness, float64(row.harness)*fac)
			dirty = append(dirty, row.dirty)
			skipped = append(skipped, row.skipped)
		}
	}
	for i, lr := range layerRows {
		res.PerLayer[lr.name] = metric{median(cols[i]), "ms"}
	}
	res.PerLayer["loop.harness_ms_per_round"] = metric{median(harness), "ms"}
	// Within a round the spans tile it, so round − Σ children is zero by
	// construction. What a reader of the table adds up are the published
	// medians; the residual is how far those are from adding up.
	sum := 0.0
	for _, name := range []string{"agent.report_ms", "daemon.ingest_wait_ms", "daemon.decide_once_ms", "agent.apply_ms", "daemon.echo_wait_ms"} {
		sum += res.PerLayer[name].Value
	}
	res.PerLayer["loop.residual_ms"] = metric{res.PerLayer["loop.round_traced_ms_p50"].Value - sum, "ms"}
	units := float64(res.OpsTotal) / float64(res.Rounds)
	res.PerLayer["core.dirty_frac"] = metric{median(dirty) / units, "ratio"}
	res.PerLayer["core.skipped_units"] = metric{median(skipped), "count"}
	overhead := 0.0
	if len(tracedMS) > 0 {
		overhead = median(tracedMS)/median(pairedMS) - 1
	}
	res.PerLayer["loop.trace_overhead_frac"] = metric{overhead, "ratio"}
}

// counters is the set of cumulative counts read at the timed phase's two
// ends.
type counters struct {
	up, down, frames, records, suppressed, heartbeats uint64
	bbBytes, replBytes, replFrames, spans, rings      uint64
	snapSum                                           float64
}

func (f *fleet) snapshotCounters() counters {
	c := counters{
		up: f.upBytes, down: f.downBytes,
		frames:  f.ingestFrames() + f.e2e.Count(),
		records: f.records.Value(),
		bbBytes: f.bbBytes.Value(),
		snapSum: f.snapDur.Sum(),
		spans:   f.srv.Trace().Total(),
		rings:   f.bell.rings,
	}
	for _, ac := range f.agentCtr {
		c.suppressed += ac.suppressed.Value()
		c.heartbeats += ac.heartbeats.Value()
		c.spans += ac.spans.Value()
	}
	if f.ops != nil {
		c.replBytes = f.ops.replBytes.Load()
		c.replFrames = f.ops.replFrames.Load()
	}
	return c
}

// postHeadroomBytes is the free, already-faulted memory the after-the-loop
// measurements start from; the largest group (fifteen scrapes of a 16k
// fleet) allocates about 200 MB between two collections.
const postHeadroomBytes = 256 << 20

// prefault makes the allocator own n more bytes of faulted-in memory: it
// allocates them, touches every page and lets go; the next collection turns
// them into free spans.
func prefault(n int) {
	b := make([]byte, n)
	for i := 0; i < n; i += 4096 {
		b[i] = 1
	}
	runtime.KeepAlive(b)
}

// segmentReps is how many repetitions of an after-the-loop measurement run
// between two kernel runs. A burst of host interference lasts a few hundred
// milliseconds; cutting a measurement into calibrated segments and taking the
// median over segments keeps one burst from owning the whole number.
const segmentReps = 5

// timeCalibrated runs fn reps times, in segments between kernel runs. fn
// returns the wall times (ms) it measured, the same number every call; the
// result holds, for each of them, every segment's lower quartile (see
// quietQuantile) in reference-host milliseconds. The collector is off while it runs
// (see postPhase); it collects once up front so that the repetitions allocate
// from free spans.
func timeCalibrated(cal *calibrator, reps int, fn func(rep int) ([]float64, error)) ([][]float64, error) {
	runtime.GC()
	k := cal.measure()
	var segs [][]float64 // per measured quantity, one value per segment
	for done := 0; done < reps; {
		n := min(segmentReps, reps-done)
		var vals [][]float64
		for i := 0; i < n; i++ {
			vs, err := fn(done + i)
			if err != nil {
				return nil, err
			}
			if vals == nil {
				vals = make([][]float64, len(vs))
			}
			for q, v := range vs {
				vals[q] = append(vals[q], v)
			}
		}
		next := cal.measure()
		if segs == nil {
			segs = make([][]float64, len(vals))
		}
		for q := range vals {
			segs[q] = append(segs[q], quantile(vals[q], quietQuantile)*postFactor(k, next))
		}
		k = next
		done += n
	}
	return segs, nil
}

// medians reduces timeCalibrated's segments to one number per quantity.
func medians(segs [][]float64) []float64 {
	out := make([]float64, len(segs))
	for q := range segs {
		out[q] = median(segs[q])
	}
	return out
}

// timeOne is timeCalibrated for a function that is itself the thing timed.
func timeOne(cal *calibrator, reps int, fn func() error) (float64, error) {
	out, err := timeCalibrated(cal, reps, func(int) ([]float64, error) {
		t := time.Now()
		err := fn()
		return []float64{ms(time.Since(t))}, err
	})
	if err != nil {
		return 0, err
	}
	return median(out[0]), nil
}

// postPhase measures what an operator or a failover sees of the system the
// loop left behind: a /metrics scrape, the inspection endpoints, the
// snapshot codec, and a takeover from an image of the final state.
func postPhase(f *fleet, cal *calibrator, res *result, images []string) error {
	s := f.spec
	pl := res.PerLayer
	reg := f.srv.Telemetry()

	// Everything measured here allocates by the megabyte (a scrape builds
	// its whole text, a restore a whole controller). Left alone, a
	// repetition costs 18 ms when the allocator hands it pages it already
	// owns, 25 ms when they come fresh from the kernel (4000 page faults),
	// 50–100 ms when a collection runs beside it — and which of the three a
	// repetition gets depends on where the heap happens to stand. So: no
	// collection except between repetitions (timeCalibrated, boot), and
	// enough already-faulted free memory that none of them touches the
	// kernel.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	prefault(postHeadroomBytes)

	var buf bytes.Buffer
	scrape, err := timeOne(cal, s.reps, func() error {
		buf.Reset()
		return reg.WritePrometheus(&buf)
	})
	if err != nil {
		return err
	}
	res.EndToEnd["scrape_ms"] = metric{scrape, "ms"}
	pl["telemetry.scrape_kb"] = metric{float64(buf.Len()) / 1024, "kB"}
	series := 0
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) > 0 && line[0] != '#' {
			series++
		}
	}
	pl["telemetry.series_count"] = metric{float64(series), "count"}

	mux := f.srv.StatusHandler()
	for name, url := range map[string]string{
		"telemetry.status_ms": "/status",
		"telemetry.rounds_ms": "/debug/rounds?n=1",
		"telemetry.why_ms":    fmt.Sprintf("/debug/why?unit=%d", s.units/2),
	} {
		v, err := timeOne(cal, s.reps, func() error { return get(mux, url) })
		if err != nil {
			return err
		}
		pl[name] = metric{v, "ms"}
	}

	// f.imageState still holds the last image's state.
	var img []byte
	var into snapshot.State
	segs, err := timeCalibrated(cal, s.reps, func(int) ([]float64, error) {
		t0 := time.Now()
		img = snapshot.Encode(img[:0], &f.imageState)
		t1 := time.Now()
		err := snapshot.DecodeInto(&into, img)
		return []float64{ms(t1.Sub(t0)), ms(time.Since(t1))}, err
	})
	if err != nil {
		return err
	}
	codec := medians(segs)
	pl["snapshot.encode_ms"] = metric{codec[0], "ms"}
	pl["snapshot.decode_ms"] = metric{codec[1], "ms"}
	pl["snapshot.image_kb"] = metric{float64(len(img)) / 1024, "kB"}

	// boot builds a fresh server the way a standby or a restarted dpsd
	// would; building it is not part of the takeover.
	boots := 0
	boot := func() (*bootedServer, error) {
		if boots%segmentReps == 0 {
			// Each boot leaves a whole server behind. Collect between
			// repetitions so that no collection starts inside one.
			runtime.GC()
		}
		boots++
		tmp := filepath.Join(f.tmp, fmt.Sprintf("boot-%d", boots))
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return nil, err
		}
		_, d, srv, err := buildServer(f.config, tmp)
		if err != nil {
			return nil, err
		}
		return &bootedServer{srv: srv, dps: d, tmp: tmp}, nil
	}

	// One segment per image; the mean over segments is the mean over the
	// regimes the images caught.
	segs, err = timeCalibrated(cal, len(images)*min(s.reps, segmentReps), func(rep int) ([]float64, error) {
		b, err := boot()
		if err != nil {
			return nil, err
		}
		image := images[rep/min(s.reps, segmentReps)]
		// Layer row: the controller's half of a restore on its own. The
		// timed restore below overwrites the same state again.
		data, err := os.ReadFile(image)
		if err != nil {
			return nil, err
		}
		if err := snapshot.DecodeInto(&into, data); err != nil {
			return nil, err
		}
		t := time.Now()
		if err := b.dps.RestoreState(&into); err != nil {
			return nil, err
		}
		restoreState := ms(time.Since(t))

		t0 := time.Now()
		if err := b.srv.RestoreFromSnapshot(image); err != nil {
			return nil, err
		}
		t1 := time.Now()
		caps, err := b.srv.DecideOnce(dT)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		if sum := float64(caps.Sum()); sum > f.budgetTotal+1e-3 {
			f.fail("takeover round cap sum %.4f exceeds budget %.4f", sum, f.budgetTotal)
		}
		return []float64{ms(t2.Sub(t0)), restoreState, ms(t2.Sub(t1))}, b.close()
	})
	if err != nil {
		return err
	}
	res.EndToEnd["takeover_ms"] = metric{mean(segs[0]), "ms"}
	pl["core.restore_state_ms"] = metric{mean(segs[1]), "ms"}
	pl["daemon.takeover_first_round_ms"] = metric{mean(segs[2]), "ms"}

	segs, err = timeCalibrated(cal, min(s.reps, segmentReps), func(int) ([]float64, error) {
		b, err := boot()
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if _, err := b.srv.DecideOnce(dT); err != nil {
			return nil, err
		}
		return []float64{ms(time.Since(t))}, b.close()
	})
	if err != nil {
		return err
	}
	pl["daemon.cold_first_round_ms"] = metric{median(segs[0]), "ms"}
	return nil
}

// takeoverImages is how many images of the running system the timed phase
// leaves for the takeover measurement, which cycles through them. What the
// first round after a restore costs depends on the regime the donor was in
// (nodes1k: 0.5 or 1.6 ms), so a takeover from the final state alone is a
// coin the seed tosses: over ten seeds it spread 25 %, repeating to 1 % for
// any one of them.
const takeoverImages = 5

// exportImage writes the state a failover would inherit right now — the
// controller's exported state plus the daemon's round caches, assembled
// through public API only — as snapshot file number i. The scratch state and
// buffer are reused, so that the images cost the timed phase's footprint one
// image, not five.
func (f *fleet) exportImage(i int) (string, error) {
	st := &f.imageState
	f.dps.ExportState(st)
	caps := f.dps.Caps()
	st.HasDaemon = true
	st.SavedUnixMS = time.Now().UnixMilli()
	st.Rounds = f.srv.Rounds()
	st.LastCaps = append(st.LastCaps[:0], caps...)
	st.LastPushed = append(st.LastPushed[:0], caps...)
	st.Health = make([]uint8, f.spec.units)
	st.ReportAgeMS = make([]uint64, f.spec.units)
	st.Readings = f.srv.Readings()
	f.imageBuf = snapshot.Encode(f.imageBuf[:0], st)
	path := filepath.Join(f.tmp, fmt.Sprintf("takeover-%d.dps", i))
	return path, os.WriteFile(path, f.imageBuf, 0o644)
}

type bootedServer struct {
	srv *daemon.Server
	dps *core.DPS
	tmp string
}

func (b *bootedServer) close() error {
	return errors.Join(b.srv.Close(), b.dps.Close(), os.RemoveAll(b.tmp))
}
