// Command dps-agent is the per-node DPS client: it reads socket power
// through RAPL, reports it to the controller every interval, and programs
// the caps the controller pushes back.
//
// Two backends are supported. The sysfs backend drives real hardware
// through /sys/class/powercap (requires Intel RAPL and root). The sim
// backend creates simulated sockets and drives them with a workload's
// power-demand trace — the zero-hardware path used by the examples and for
// protocol testing:
//
//	dps-agent -connect localhost:7891 -first-unit 0 -backend sim -workload GMM
//	dps-agent -connect localhost:7891 -first-unit 0 -backend sysfs
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dps/internal/daemon"
	"dps/internal/power"
	"dps/internal/rapl"
	"dps/internal/version"
	"dps/internal/workload"
)

func main() {
	var (
		connect     = flag.String("connect", "localhost:7891", "controller address, or a comma-separated failover list (primary,standby)")
		firstUnit   = flag.Int("first-unit", 0, "this node's first global unit ID")
		units       = flag.Int("units", 2, "sim backend: number of simulated sockets")
		backend     = flag.String("backend", "sim", "power backend: sim|sysfs")
		sysfsRoot   = flag.String("sysfs-root", "/sys/class/powercap", "sysfs backend: powercap root")
		wlName      = flag.String("workload", "GMM", "sim backend: workload demand trace to replay")
		interval    = flag.Duration("interval", time.Second, "report period (match the controller)")
		seed        = flag.Int64("seed", 1, "sim backend: jitter seed")
		minCap      = flag.Float64("min-cap", 10, "lowest cap to accept, watts")
		httpAddr    = flag.String("http", "", "serve agent /metrics, /healthz and /debug/pprof on this address (e.g. :7893)")
		meterTol    = flag.Int("meter-tolerance", 0, "consecutive RAPL read errors to ride through on the last good sample (0 = default, negative = strict)")
		batch       = flag.Bool("batch", false, "delta suppression: only readings that moved past the delta epsilon go on the wire, quiet intervals heartbeat (off: every report carries every unit)")
		deltaEps    = flag.Float64("delta-epsilon", 0, "batch mode: local delta-suppression band in watts (0 = adopt the controller's advertised epsilon)")
		refreshEvry = flag.Int("refresh-every", 0, "batch mode: force an unsuppressed full report every N reports (0 = default, negative = never)")
		traceOn     = flag.Bool("trace", false, "record meter/report/apply spans into the local ring served at /debug/trace")
		traceSpans  = flag.Int("trace-spans", 0, "span ring capacity (0 = default)")
		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("dps-agent"))
		return
	}

	var devices []rapl.Device
	var driver func(ctx context.Context)

	switch *backend {
	case "sysfs":
		dirs, err := rapl.DiscoverSysfs(*sysfsRoot)
		if err != nil {
			log.Fatalf("dps-agent: %v", err)
		}
		if len(dirs) == 0 {
			log.Fatalf("dps-agent: no intel-rapl package domains under %s", *sysfsRoot)
		}
		for _, dir := range dirs {
			dev, err := rapl.OpenSysfs(dir, power.Watts(*minCap))
			if err != nil {
				log.Fatalf("dps-agent: %v", err)
			}
			log.Printf("dps-agent: opened %s (max %.0f W)", dir, dev.MaxPower())
			devices = append(devices, dev)
		}
	case "sim":
		spec, err := workload.ByName(*wlName)
		if err != nil {
			log.Fatalf("dps-agent: %v", err)
		}
		rng := rand.New(rand.NewSource(*seed))
		var sims []*rapl.SimDevice
		for i := 0; i < *units; i++ {
			cfg := rapl.DefaultSimConfig()
			cfg.Seed = *seed*100 + int64(i)
			dev, err := rapl.NewSimDevice(cfg)
			if err != nil {
				log.Fatalf("dps-agent: %v", err)
			}
			sims = append(sims, dev)
			devices = append(devices, dev)
		}
		// The driver replays the workload's demand onto every simulated
		// socket in real time, restarting runs back-to-back.
		driver = func(ctx context.Context) {
			run := workload.NewRun(spec, rng)
			ticker := time.NewTicker(*interval)
			defer ticker.Stop()
			last := time.Now()
			for {
				select {
				case <-ctx.Done():
					return
				case now := <-ticker.C:
					dt := power.Seconds(now.Sub(last).Seconds())
					last = now
					if run.Done() {
						run = workload.NewRun(spec, rng)
					}
					d := run.Demand()
					for _, dev := range sims {
						dev.SetLoad(d)
						dev.Advance(dt)
					}
					// Progress at the slowest socket's speed, like a BSP job.
					perf := workload.DefaultPerfModel()
					speed := 1.0
					for _, dev := range sims {
						c, _ := dev.Cap()
						if s := perf.Speed(c, d); s < speed {
							speed = s
						}
					}
					remaining := dt
					for remaining > 1e-9 && !run.Done() {
						used := run.Advance(speed, remaining)
						if used <= 0 {
							break
						}
						remaining -= used
					}
				}
			}
		}
	default:
		log.Fatalf("dps-agent: unknown backend %q (want sim or sysfs)", *backend)
	}

	agent, err := daemon.NewAgent(daemon.AgentConfig{
		FirstUnit:           power.UnitID(*firstUnit),
		Devices:             devices,
		Interval:            *interval,
		Logf:                log.Printf,
		MeterErrorTolerance: *meterTol,
		Batch:               *batch,
		DeltaEpsilon:        power.Watts(*deltaEps),
		RefreshEvery:        *refreshEvry,
		Trace:               *traceOn,
		TraceSpans:          *traceSpans,
	})
	if err != nil {
		log.Fatalf("dps-agent: %v", err)
	}
	log.Printf("dps-agent: units [%d,%d), backend %s, controller %s",
		*firstUnit, *firstUnit+len(devices), *backend, *connect)

	var httpSrv *http.Server
	if *httpAddr != "" {
		mux := agent.DebugHandler()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		httpSrv = &http.Server{
			Addr:              *httpAddr,
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			log.Printf("dps-agent: metrics endpoint on http://%s/metrics", *httpAddr)
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("dps-agent: metrics endpoint: %v", err)
			}
		}()
	}

	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		log.Printf("dps-agent: shutting down (%d reports, %d cap batches applied)",
			agent.Reports(), agent.Applied())
		if httpSrv != nil {
			sctx, scancel := context.WithTimeout(context.Background(), 3*time.Second)
			if err := httpSrv.Shutdown(sctx); err != nil {
				log.Printf("dps-agent: http shutdown: %v", err)
			}
			scancel()
		}
		cancel()
	}()
	if driver != nil {
		go driver(ctx)
	}
	// Reconnect forever, rotating through the controller address list: a
	// controller restart or a standby takeover must not take agents down.
	addrs := strings.Split(*connect, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	if err := agent.RunWithReconnectAddrs(ctx, "tcp", addrs, 0, 0); err != nil {
		log.Fatalf("dps-agent: %v", err)
	}
}
