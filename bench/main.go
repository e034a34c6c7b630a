// Command bench is the repository's end-to-end benchmark: a closed,
// lock-step reading→cap loop over loopback TCP through the real agent,
// protocol, daemon and controller code, measured from outside. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run ./bench                          every workload, untraced then traced
//	go run ./bench -workload dense16k       one workload, in this process
//	go run ./bench -workload dense16k -trace 1
//	go run ./bench -selfcheck               A/A: every workload twice, against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// The metric names the benchmark emits; BENCHMARK.json declares the same
// sets (bench_test.go holds the two together).
var endToEndNames = []string{
	"round_ms", "cpu_ms_per_round", "alloc_mb_per_round", "rss_peak_mb",
	"wire_kb_per_round", "takeover_ms", "scrape_ms", "setup_s",
}

func main() {
	// One P: wall time is then the work on the blocking path, and layer
	// rows add up. The benchmark measures work, not parallel speed-up.
	runtime.GOMAXPROCS(1)

	var (
		workload  = flag.String("workload", "", "run this workload in-process (default: all four, each in a child process)")
		seed      = flag.Int64("seed", 1, "demand-generator seed")
		seconds   = flag.Int("seconds", 12, "length of the timed phase; converted to a fixed round count per workload")
		trace     = flag.Int("trace", 0, "1: record harness-side spans and report the per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice (A/A) and compare against the bounds in BENCHMARK.json")
		dir       = flag.String("dir", "bench", "the benchmark's own directory (configs/, out/)")
	)
	flag.Parse()
	opt := options{dir: *dir, seed: *seed, seconds: *seconds, trace: *trace != 0}
	if opt.seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	if err := os.MkdirAll(filepath.Join(opt.dir, "out"), 0o755); err != nil {
		fatalf("%v", err)
	}

	var code int
	switch {
	case *selfcheck:
		code = runSelfcheck(opt)
	case *workload == "":
		code = runAll(opt)
	default:
		code = runOne(*workload, opt)
	}
	os.Exit(code)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// driverLine is the one JSON object a run ends its standard output with.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func resultPath(dir, workload string, seed int64, traced bool) string {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	return filepath.Join(dir, "out", fmt.Sprintf("result-%s-seed%d-%s.json", workload, seed, mode))
}

// runOne runs one workload in this process, prints its tables, leaves the
// full result (provenance included) under out/, and ends with the driver
// line: the end-to-end metrics of an untraced run, the per-layer metrics of
// a traced one.
func runOne(name string, opt options) int {
	s, ok := specByName(name)
	if !ok {
		fatalf("unknown workload %q", name)
	}
	res, err := runWorkload(s, opt)
	if err != nil {
		fatalf("%s: %v", name, err)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(resultPath(opt.dir, name, opt.seed, opt.trace), append(data, '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}
	printResult(res)
	line := driverLine{Correct: res.OpsFailed == 0, Attempted: res.OpsTotal, Failed: res.OpsFailed, Metrics: res.EndToEnd}
	if opt.trace {
		line.Metrics = res.PerLayer
	}
	out, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
	if res.OpsFailed != 0 {
		return 1
	}
	return 0
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printResult(res *result) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Printf("== %s  seed %d  %d timed rounds  %s  status %s\n", res.Workload, res.Seed, res.Rounds, mode, res.Status)
	fmt.Printf("   ops_total %d  ops_failed %d  caps_digest %s  prefix %s\n",
		res.OpsTotal, res.OpsFailed, res.CapsDigest, res.CapsDigestPrefix)
	for _, f := range res.Failures {
		fmt.Printf("   FAILED %s\n", f)
	}
	p := res.Provenance
	fmt.Printf("   host: %s, %d cpus, GOMAXPROCS %d, kernel %s, steal %.2f%%, commit %s dirty=%v\n",
		p.GoVersion, p.NumCPU, p.GOMAXPROCS, p.Kernel, p.StealPct, p.Commit, p.Dirty)
	if res.Status != "ok" {
		fmt.Printf("   UNRESOLVED: host calibration spread %.2f exceeds 2.5; the time-valued numbers below are not to be trusted\n",
			res.PerLayer["loop.host_calib_spread"].Value)
	}
	fmt.Println("   end to end (time in reference-host units):")
	for _, name := range endToEndNames {
		m := res.EndToEnd[name]
		fmt.Printf("     %-28s %14.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Println("   per layer:")
	for _, name := range sortedKeys(res.PerLayer) {
		m := res.PerLayer[name]
		fmt.Printf("     %-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	if res.TraceFile != "" {
		fmt.Printf("   trace written to %s\n", res.TraceFile)
	}
}

// child runs one workload in a fresh process and loads the result it left.
func child(name string, opt options, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(opt.seed),
		"-seconds", fmt.Sprint(opt.seconds), "-trace", tr, "-dir", opt.dir)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	data, err := os.ReadFile(resultPath(opt.dir, name, opt.seed, traced))
	if err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, err
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// runAll is what a person runs: every workload untraced, then traced, each
// in a fresh child process; the caps digest of the two runs must agree.
func runAll(opt options) int {
	code := 0
	summary := map[string]any{}
	var attempted, failed uint64
	for _, s := range specs {
		os.Remove(resultPath(opt.dir, s.name, opt.seed, false))
		os.Remove(resultPath(opt.dir, s.name, opt.seed, true))
		plain, err := child(s.name, opt, false)
		if err != nil {
			fatalf("%s: %v", s.name, err)
		}
		traced, err := child(s.name, opt, true)
		if err != nil {
			fatalf("%s traced: %v", s.name, err)
		}
		attempted += plain.OpsTotal + traced.OpsTotal
		failed += plain.OpsFailed + traced.OpsFailed
		if plain.CapsDigestPrefix != traced.CapsDigestPrefix || plain.CapsDigest != traced.CapsDigest {
			fmt.Printf("== %s: caps digest differs between the untraced (%s) and the traced (%s) run\n",
				s.name, plain.CapsDigest, traced.CapsDigest)
			failed++
		}
		residual := traced.PerLayer["loop.residual_ms"].Value / traced.PerLayer["loop.round_traced_ms_p50"].Value
		fmt.Printf("== %s: loop.residual_ms is %.2f%% of the traced round\n", s.name, 100*residual)
		summary[s.name] = map[string]any{"end_to_end": plain.EndToEnd, "per_layer": traced.PerLayer,
			"caps_digest": plain.CapsDigest, "status": plain.Status}
	}
	if failed != 0 {
		code = 1
	}
	out, err := json.Marshal(map[string]any{"correct": failed == 0, "attempted": attempted, "failed": failed, "workloads": summary})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
	return code
}

// benchmarkFile is the part of BENCHMARK.json the harness reads back.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(dir string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(dir, "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, err
	}
	return &bf, nil
}

// runSelfcheck is the A/A test behind the benchmark's claim that its numbers
// repeat: every workload twice, back to back, same seed; every end-to-end
// metric must agree within its own regression bound and the digests must be
// identical.
func runSelfcheck(opt options) int {
	bf, err := loadBenchmarkFile(opt.dir)
	if err != nil {
		fatalf("%v", err)
	}
	bad := 0
	var table strings.Builder
	fmt.Fprintf(&table, "%-10s %-20s %12s %12s %8s %7s\n", "workload", "metric", "run A", "run B", "diff", "bound")
	for _, s := range specs {
		a, err := child(s.name, opt, false)
		if err != nil {
			fatalf("%s: %v", s.name, err)
		}
		b, err := child(s.name, opt, false)
		if err != nil {
			fatalf("%s: %v", s.name, err)
		}
		if a.CapsDigest != b.CapsDigest {
			fmt.Fprintf(&table, "%-10s caps_digest differs: %s vs %s\n", s.name, a.CapsDigest, b.CapsDigest)
			bad++
		}
		bad += int(a.OpsFailed + b.OpsFailed)
		for _, m := range bf.EndToEnd {
			va, vb := a.EndToEnd[m.Name].Value, b.EndToEnd[m.Name].Value
			diff := (vb - va) / va
			mark := ""
			if diff > m.Bound || -diff > m.Bound {
				mark = "  EXCEEDS"
				bad++
			}
			fmt.Fprintf(&table, "%-10s %-20s %12.4f %12.4f %+7.2f%% %6.0f%%%s\n", s.name, m.Name, va, vb, 100*diff, 100*m.Bound, mark)
		}
	}
	fmt.Print("\n== selfcheck (A/A)\n", table.String())
	if bad != 0 {
		fmt.Printf("selfcheck FAILED: %d comparisons outside their bound\n", bad)
		return 1
	}
	fmt.Println("selfcheck passed")
	return 0
}
