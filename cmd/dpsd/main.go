// Command dpsd is the DPS controller daemon: it accepts node-agent
// connections, runs the control system once per decision interval, and
// pushes per-unit power caps back over the 3-byte-record protocol.
//
// Usage:
//
//	dpsd -listen :7891 -units 20 -budget 2200 -policy dps
//
// The controller is DPS; -policy slurm runs its stateless-only preset.
// The baselines DPS is compared against run in dps-sim. Agents
// (cmd/dps-agent) connect, each claiming a contiguous global unit range.
// Units without a live agent coast on their last report.
package main

import (
	"context"
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

	"dps/internal/daemon"
	"dps/internal/version"
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
	// Every setting is a flag that fills the same daemon.FileConfig a
	// -config file parses into; only what concerns this process rather
	// than the controller it runs is declared here.
	var fc daemon.FileConfig
	resolveFlags := daemon.RegisterFlags(flag.CommandLine, &fc)
	quiet := flag.Bool("quiet", false, "suppress operational logging")
	confPath := flag.String("config", "", "JSON config file (overrides all other flags)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("dpsd"))
		return
	}

	// One road from here, whichever surface filled fc: defaults and
	// validation, the manager, the server config, the server.
	var err error
	if *confPath != "" {
		fc, err = daemon.LoadFileConfig(*confPath)
	} else {
		err = resolveFlags()
	}
	if err != nil {
		log.Fatalf("dpsd: %v", err)
	}
	mgr, err := fc.BuildManager()
	if err != nil {
		log.Fatalf("dpsd: %v", err)
	}
	var cfg daemon.ServerConfig
	fc.ApplyKnobs(&cfg)
	cfg.Manager = mgr
	if !*quiet {
		cfg.Logf = log.Printf
	}
	srv, err := daemon.NewServer(cfg)
	if err != nil {
		log.Fatalf("dpsd: %v", err)
	}
	if fc.RestoreFrom != "" {
		// RestoreFromSnapshot logs the restored round/unit counts itself; a
		// rejection (stale, corrupt, wrong shape) is fatal — the operator
		// asked for continuity, and silently cold-starting instead would
		// hand every unit the constant-cap round the restore was meant to
		// avoid.
		if err := srv.RestoreFromSnapshot(fc.RestoreFrom); err != nil {
			log.Fatalf("dpsd: %v", err)
		}
	}

	var httpSrv *http.Server
	if fc.HTTP != "" {
		mux := srv.StatusHandler()
		attachPprof(mux)
		httpSrv = &http.Server{
			Addr:              fc.HTTP,
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			log.Printf("dpsd: status endpoint on http://%s/status (metrics, alerts, debug/rounds, debug/series, debug/trace, debug/why, debug/pprof)", fc.HTTP)
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

	if fc.StandbyOf != "" {
		// Warm standby: follow the primary's replication stream, and open
		// the agent listener only at takeover — until then agents probing
		// this address are refused and rotate back to the primary.
		log.Printf("dpsd: warm standby of %s (%s policy, %d units); agents served on %s after takeover",
			fc.StandbyOf, mgr.Name(), fc.Units, fc.Listen)
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
			l, err := net.Listen("tcp", fc.Listen)
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

	l, err := net.Listen("tcp", fc.Listen)
	if err != nil {
		log.Fatalf("dpsd: %v", err)
	}
	log.Printf("dpsd: %s policy over %d units, budget %.0f W, listening on %s",
		mgr.Name(), fc.Units, mgr.Budget().Total, l.Addr())

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
