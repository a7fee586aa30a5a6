// Command ibprouter is the fault-tolerant cluster ingress for a fleet of
// ibpserved backends. Clients speak the ordinary IBPT wire protocol to the
// router; the router places each session onto a backend by consistent
// hashing of its first record's PC, health-checks the fleet, and keeps a
// bounded per-session frame journal so that a backend dying mid-session is
// repaired by replaying the session prefix onto a survivor — the client's
// final summary is bit-identical to an uninterrupted run.
//
// SIGTERM or SIGINT drains the router gracefully: no new sessions are
// accepted and live ones run to completion within the drain budget.
//
// Examples:
//
//	ibprouter -addr 127.0.0.1:9680 -backends 127.0.0.1:9670,127.0.0.1:9671
//	ibprouter -backends host1:9670,host2:9670 -probe 500ms -fails 2 -metrics 127.0.0.1:9092
//	ibprouter -backends host1:9670,host2:9670 -journal 16777216 -summaryjson run.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/oocsb/ibp/internal/cli"
	"github.com/oocsb/ibp/internal/cluster"
	"github.com/oocsb/ibp/internal/flight"
	"github.com/oocsb/ibp/internal/sessiontrack"
	"github.com/oocsb/ibp/internal/telemetry"
)

type options struct {
	addr           string
	backends       string
	backendMetrics string
	window       int
	maxRecords   int
	maxPayload   int
	journalBytes int64
	probe        time.Duration
	probeTimeout time.Duration
	fails        int
	rises        int
	dialTimeout  time.Duration
	dialRetries  int
	dialBackoff  time.Duration
	maxBackoff   time.Duration
	vnodes       int
	readTimeout  time.Duration
	writeTimeout time.Duration
	drainTimeout time.Duration
	metricsAddr  string
	summaryJSON  string
	logLevel     string
	flightCap    int
	slo          time.Duration
	tunerPolicy  string
	readOnly     bool

	pf cli.PredictorFlags
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:9680", "listen address")
	flag.StringVar(&o.backends, "backends", "", "comma-separated ibpserved addresses (required)")
	flag.StringVar(&o.backendMetrics, "backendmetrics", "", "comma-separated backend -metrics addresses, parallel to -backends; enables the cluster-wide /sessions fan-in")
	flag.IntVar(&o.window, "window", 0, "max unacknowledged frames per session (0 = default)")
	flag.IntVar(&o.maxRecords, "maxrecords", 0, "max records per frame (0 = default)")
	flag.IntVar(&o.maxPayload, "maxpayload", 0, "max frame payload bytes (0 = default)")
	flag.Int64Var(&o.journalBytes, "journal", 0, "per-session replay journal budget in bytes (0 = default 64 MiB, negative = unbounded)")
	flag.DurationVar(&o.probe, "probe", 0, "health probe interval (0 = default)")
	flag.DurationVar(&o.probeTimeout, "probetimeout", 0, "per-probe connect timeout (0 = default)")
	flag.IntVar(&o.fails, "fails", 0, "consecutive probe failures to mark a backend down (0 = default)")
	flag.IntVar(&o.rises, "rises", 0, "consecutive probe successes for a down backend to rejoin (0 = default)")
	flag.DurationVar(&o.dialTimeout, "dialtimeout", 0, "per-attempt backend dial timeout (0 = default)")
	flag.IntVar(&o.dialRetries, "dialretries", 0, "backend dial retries per candidate (0 = default)")
	flag.DurationVar(&o.dialBackoff, "dialbackoff", 0, "initial backend dial backoff (0 = default)")
	flag.DurationVar(&o.maxBackoff, "maxdialbackoff", 0, "backend dial backoff cap (0 = default)")
	flag.IntVar(&o.vnodes, "vnodes", 0, "virtual nodes per backend on the placement ring (0 = default)")
	flag.DurationVar(&o.readTimeout, "readtimeout", 0, "per-frame client read timeout (0 = default)")
	flag.DurationVar(&o.writeTimeout, "writetimeout", 0, "client flush timeout (0 = default)")
	flag.DurationVar(&o.drainTimeout, "draintimeout", 30*time.Second, "graceful drain budget after SIGTERM/SIGINT")
	flag.StringVar(&o.metricsAddr, "metrics", "", "serve /metrics and /vars on this address")
	flag.StringVar(&o.summaryJSON, "summaryjson", "", "write a JSON run summary to this file on exit")
	flag.StringVar(&o.logLevel, "log", "info", "structured log level: debug, info, warn, error, off")
	flag.IntVar(&o.flightCap, "flightrecorder", 0, "trace the last N frames in an in-memory flight recorder (0 = off, served at /debug/flightrecorder on the -metrics address)")
	flag.DurationVar(&o.slo, "slo", 0, "log a per-hop breakdown for frames slower than this end to end (0 = off; needs -flightrecorder)")
	flag.StringVar(&o.tunerPolicy, "tunerpolicy", "", "tuner policy pinned into forwarded Hellos so every backend (including failover replacements) tunes identically; backends need -tuner")
	flag.BoolVar(&o.readOnly, "readonly", false, "reject mutating admin verbs (kill/drain/retune) on the -metrics mux")
	o.pf.Register(flag.CommandLine)
	flag.Parse()
	if err := realMain(o); err != nil {
		fmt.Fprintln(os.Stderr, "ibprouter:", err)
		os.Exit(1)
	}
}

// runSummary is the -summaryjson artifact: the final fleet state plus the
// router's counters, enough for CI to assert a clean drain and zero lost
// sessions.
type runSummary struct {
	Addr     string                  `json:"addr"`
	Backends []cluster.BackendStatus `json:"backends"`
	Graceful bool                    `json:"graceful"`
	Signal   string                  `json:"signal,omitempty"`
	Uptime   string                  `json:"uptime"`
	Flight   *flight.Stats           `json:"flight,omitempty"`
	Metrics  telemetry.Snapshot      `json:"metrics,omitempty"`
}

func realMain(o options) error {
	level, err := telemetry.ParseLevel(o.logLevel)
	if err != nil {
		return err
	}
	log := telemetry.NewLogger(os.Stderr, level)
	if err := o.pf.Validate(); err != nil {
		return err
	}
	backends := splitBackends(o.backends)
	if len(backends) == 0 {
		return errors.New("no backends: pass -backends host:port[,host:port...]")
	}
	var backendMetrics map[string]string
	if o.backendMetrics != "" {
		maddrs := splitBackends(o.backendMetrics)
		if len(maddrs) != len(backends) {
			return fmt.Errorf("-backendmetrics has %d entries, -backends has %d (they are parallel lists)", len(maddrs), len(backends))
		}
		backendMetrics = make(map[string]string, len(maddrs))
		for i, addr := range backends {
			backendMetrics[addr] = maddrs[i]
		}
	}

	// The registry must exist before cluster.New resolves its handles.
	var reg *telemetry.Registry
	if o.metricsAddr != "" || o.summaryJSON != "" {
		reg = telemetry.Enable(nil)
	}
	var rec *flight.Recorder
	if o.flightCap > 0 {
		rec = flight.NewRecorder(flight.Options{
			Service:  "ibprouter",
			Capacity: o.flightCap,
			SLO:      o.slo,
			Log:      log,
		})
		log.Info("flight recorder on", "capacity", o.flightCap, "slo", o.slo)
	}
	// The router exists before the metrics mux so its session registry and
	// the cluster fan-in can be mounted at /sessions*.
	r, err := cluster.New(cluster.Config{
		Backends:        backends,
		BackendMetrics:  backendMetrics,
		Predictor:       o.pf,
		Window:          o.window,
		MaxFramePayload: o.maxPayload,
		MaxFrameRecords: o.maxRecords,
		JournalBytes:    o.journalBytes,
		ReadTimeout:     o.readTimeout,
		WriteTimeout:    o.writeTimeout,
		DialTimeout:     o.dialTimeout,
		DialRetries:     o.dialRetries,
		DialBackoff:     o.dialBackoff,
		MaxDialBackoff:  o.maxBackoff,
		ProbeInterval:   o.probe,
		ProbeTimeout:    o.probeTimeout,
		FailThreshold:   o.fails,
		RiseThreshold:   o.rises,
		VirtualNodes:    o.vnodes,
		Flight:          rec,
		TunerPolicy:     o.tunerPolicy,
		Log:             log,
	})
	if err != nil {
		return err
	}
	if o.metricsAddr != "" {
		mounts := []func(*http.ServeMux){
			func(mux *http.ServeMux) {
				sessiontrack.Mount(mux, sessiontrack.HTTPConfig{
					// The fan-in merges backend /sessions into the cluster
					// view; /sessions/local stays the router's own registry.
					Source:    r.Fanin(0),
					Local:     r.Sessions(),
					Telemetry: reg,
					Flight:    rec,
					ReadOnly:  o.readOnly,
				})
			},
		}
		if rec != nil {
			mounts = append(mounts, func(mux *http.ServeMux) {
				mux.Handle("/debug/flightrecorder", rec.Handler())
			})
		}
		msrv, maddr, err := telemetry.ServeMetrics(o.metricsAddr, reg, mounts...)
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		defer msrv.Close()
		log.Info("metrics endpoint up", "addr", maddr)
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	start := time.Now()
	// The handler goes in before the "listening on" line: a supervisor that
	// signals as soon as it reads that line must get a drain, not a kill.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("ibprouter: listening on %s, %d backends\n", ln.Addr(), len(backends))

	serveErr := make(chan error, 1)
	go func() { serveErr <- r.Serve(ln) }()

	sum := runSummary{Addr: ln.Addr().String()}
	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case sig := <-sigs:
		sum.Signal = sig.String()
		log.Info("signal received, draining", "signal", sig, "budget", o.drainTimeout, "sessions", r.SessionCount())
		ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
		forced := make(chan struct{})
		go func() {
			select {
			case <-sigs:
				log.Warn("second signal: forcing shutdown")
				cancel()
			case <-forced:
			}
		}()
		err := r.Shutdown(ctx)
		close(forced)
		cancel()
		<-serveErr
		sum.Graceful = err == nil
		if err != nil {
			log.Warn("drain incomplete, sessions cut", "err", err)
		}
	}
	sum.Uptime = time.Since(start).String()
	sum.Backends = r.BackendStatuses()
	if rec != nil {
		st := rec.Stats()
		sum.Flight = &st
	}
	sum.Metrics = reg.Snapshot()
	if o.summaryJSON != "" {
		if err := writeSummary(o.summaryJSON, sum); err != nil {
			return err
		}
	}
	if !sum.Graceful {
		return errors.New("drain timed out; live sessions were cut")
	}
	fmt.Println("ibprouter: drained cleanly")
	return nil
}

func splitBackends(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func writeSummary(path string, sum runSummary) error {
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
