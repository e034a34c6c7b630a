// Command dpsd is the DPS controller daemon: it accepts node-agent
// connections, runs the control system once per decision interval, and
// pushes per-unit power caps back over the 3-byte-record protocol.
//
// Usage:
//
//	dpsd -listen :7891 -units 20 -budget 2200 -policy dps
//
// Agents (cmd/dps-agent) connect, each claiming a contiguous global unit
// range. Units without a live agent coast on their last report.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"dps/internal/baseline"
	"dps/internal/core"
	"dps/internal/daemon"
	"dps/internal/power"
	"dps/internal/stateless"
	"dps/internal/version"
	"dps/internal/watch"
)

// attachPprof mounts net/http/pprof on the daemon's debug mux, so the
// same -http listener serves CPU/heap profiles and execution traces next
// to /metrics and /debug/rounds.
func attachPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

func main() {
	var (
		listen   = flag.String("listen", ":7891", "TCP address to accept agents on")
		units    = flag.Int("units", 20, "total power-capping units across all nodes")
		budgetW  = flag.Float64("budget", 0, "cluster-wide power budget in watts (0 = 110 W per unit)")
		unitMax  = flag.Float64("unit-max", 165, "hardware maximum cap per unit (TDP)")
		unitMin  = flag.Float64("unit-min", 10, "hardware minimum cap per unit")
		interval = flag.Duration("interval", time.Second, "decision loop period")
		policy   = flag.String("policy", "dps", "power policy: dps|slurm|constant")
		seed     = flag.Int64("seed", 1, "controller seed (random cap-raise order)")
		quiet    = flag.Bool("quiet", false, "suppress operational logging")
		httpAddr = flag.String("http", "", "serve /status, /metrics and /healthz on this address (e.g. :7892)")
		confPath = flag.String("config", "", "JSON config file (overrides all other flags)")

		showVersion = flag.Bool("version", false, "print version and exit")
	)
	// Every per-setting server knob (health thresholds, ingest limits,
	// delta epsilon, trace/series/watch toggles) registers from the
	// daemon's knob table, so flag names and JSON keys cannot drift.
	applyKnobFlags := daemon.RegisterServerFlags(flag.CommandLine)
	var watchRules []watch.Rule
	flag.Func("watch-rule", `alert rule as JSON (repeatable), e.g. '{"name":"cap_sum_high","kind":"threshold","series":"dps_cap_sum_watts","value":2100,"for_ms":5000}'`, func(v string) error {
		var r watch.Rule
		if err := json.Unmarshal([]byte(v), &r); err != nil {
			return err
		}
		if err := r.Validate(); err != nil {
			return err
		}
		watchRules = append(watchRules, r)
		return nil
	})
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("dpsd"))
		return
	}

	var mgr core.Manager
	var err error
	nUnits := *units
	listenAddr := *listen
	interval_ := *interval
	statusAddr := *httpAddr

	var cfg daemon.ServerConfig
	if *confPath != "" {
		fc, err := daemon.LoadFileConfig(*confPath)
		if err != nil {
			log.Fatalf("dpsd: %v", err)
		}
		mgr, err = fc.BuildManager()
		if err != nil {
			log.Fatalf("dpsd: %v", err)
		}
		nUnits = fc.Units
		listenAddr = fc.Listen
		interval_ = fc.Interval()
		statusAddr = fc.HTTP
		fc.ApplyKnobs(&cfg)
		watchRules = fc.WatchRules
	} else {
		total := power.Watts(*budgetW)
		if total == 0 {
			total = power.Watts(*units) * 110
		}
		budget := power.Budget{Total: total, UnitMax: power.Watts(*unitMax), UnitMin: power.Watts(*unitMin)}
		// Knob flags land before the manager is built: some of them
		// (-sparse-rounds, -sparse-refresh-every) are controller
		// construction inputs, not server settings.
		applyKnobFlags(&cfg)
		switch *policy {
		case "dps":
			ccfg := core.DefaultConfig(*units, budget)
			ccfg.Seed = *seed
			ccfg.SparseRefreshEvery = cfg.SparseRefreshEvery
			mgr, err = core.NewDPS(ccfg)
		case "slurm":
			mgr, err = baseline.NewSLURM(*units, budget, stateless.DefaultConfig(), *seed)
		case "constant":
			mgr, err = baseline.NewConstant(*units, budget)
		default:
			err = fmt.Errorf("unknown policy %q (want dps, slurm or constant)", *policy)
		}
		if err != nil {
			log.Fatalf("dpsd: %v", err)
		}
	}

	if len(watchRules) > 0 && !cfg.WatchEnabled {
		log.Fatalf("dpsd: -watch-rule requires -watch")
	}

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	cfg.Manager = mgr
	cfg.Units = nUnits
	cfg.Interval = interval_
	cfg.Logf = logf
	cfg.WatchRules = watchRules
	if cfg.StandbyOf != "" && cfg.RestoreFrom != "" {
		log.Fatalf("dpsd: -standby-of and -restore-from are mutually exclusive (a standby inherits state from its primary)")
	}
	srv, err := daemon.NewServer(cfg)
	if err != nil {
		log.Fatalf("dpsd: %v", err)
	}
	if cfg.RestoreFrom != "" {
		// RestoreFromSnapshot logs the restored round/unit counts itself; a
		// rejection (stale, corrupt, wrong shape) is fatal — the operator
		// asked for continuity, and silently cold-starting instead would
		// hand every unit the constant-cap round the restore was meant to
		// avoid.
		if err := srv.RestoreFromSnapshot(cfg.RestoreFrom); err != nil {
			log.Fatalf("dpsd: %v", err)
		}
	}

	var httpSrv *http.Server
	if statusAddr != "" {
		mux := srv.StatusHandler()
		attachPprof(mux)
		httpSrv = &http.Server{
			Addr:              statusAddr,
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			log.Printf("dpsd: status endpoint on http://%s/status (metrics, alerts, debug/rounds, debug/series, debug/trace, debug/why, debug/pprof)", statusAddr)
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("dpsd: status endpoint: %v", err)
			}
		}()
	}
	shutdownHTTP := func() {
		if httpSrv == nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("dpsd: http shutdown: %v", err)
		}
		cancel()
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	if cfg.StandbyOf != "" {
		// Warm standby: follow the primary's replication stream, and open
		// the agent listener only at takeover — until then agents probing
		// this address are refused and rotate back to the primary.
		log.Printf("dpsd: warm standby of %s (%s policy, %d units); agents served on %s after takeover",
			cfg.StandbyOf, mgr.Name(), nUnits, listenAddr)
		var lmu sync.Mutex
		var takeoverL net.Listener
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			<-sigc
			log.Printf("dpsd: standby shutting down after %d decision rounds", srv.Rounds())
			shutdownHTTP()
			cancel()
			srv.Close()
			lmu.Lock()
			if takeoverL != nil {
				takeoverL.Close()
			}
			lmu.Unlock()
		}()
		err := srv.RunStandby(ctx, func() (net.Listener, error) {
			l, err := net.Listen("tcp", listenAddr)
			if err != nil {
				return nil, err
			}
			lmu.Lock()
			takeoverL = l
			lmu.Unlock()
			log.Printf("dpsd: serving agents on %s", l.Addr())
			return l, nil
		})
		if err != nil {
			log.Fatalf("dpsd: %v", err)
		}
		return
	}

	l, err := net.Listen("tcp", listenAddr)
	if err != nil {
		log.Fatalf("dpsd: %v", err)
	}
	log.Printf("dpsd: %s policy over %d units, budget %.0f W, listening on %s",
		mgr.Name(), nUnits, mgr.Budget().Total, l.Addr())

	go func() {
		<-sigc
		log.Printf("dpsd: shutting down after %d decision rounds", srv.Rounds())
		shutdownHTTP()
		srv.Close()
		l.Close()
	}()

	if err := srv.Serve(l); err != nil {
		log.Fatalf("dpsd: %v", err)
	}
}
