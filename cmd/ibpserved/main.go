// Command ibpserved runs the streaming prediction service: clients open
// sessions over TCP, stream branch-trace frames, and receive per-frame
// prediction outcomes plus a final summary. SIGTERM or SIGINT drains the
// server gracefully: accepted work is processed, acknowledged, and
// summarized before the process exits.
//
// Examples:
//
//	ibpserved -addr 127.0.0.1:9670
//	ibpserved -addr :9670 -shards 8 -window 16 -metrics 127.0.0.1:9091
//	ibpserved -pred btb-2bc -table assoc4 -entries 1024 -summaryjson run.json
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
	"syscall"
	"time"

	"github.com/oocsb/ibp/internal/cli"
	"github.com/oocsb/ibp/internal/flight"
	"github.com/oocsb/ibp/internal/serve"
	"github.com/oocsb/ibp/internal/sessiontrack"
	"github.com/oocsb/ibp/internal/telemetry"
	"github.com/oocsb/ibp/internal/tuner"
)

type options struct {
	addr         string
	shards       int
	queue        int
	window       int
	maxRecords   int
	maxPayload   int
	readTimeout  time.Duration
	writeTimeout time.Duration
	drainTimeout time.Duration
	metricsAddr  string
	summaryJSON  string
	logLevel     string
	tag          string
	flightCap    int
	slo          time.Duration
	tuner        bool
	tunerPolicy  string
	tunerMax     int
	readOnly     bool

	pf cli.PredictorFlags
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:9670", "listen address")
	flag.IntVar(&o.shards, "shards", 0, "predictor worker shards (0 = GOMAXPROCS)")
	flag.IntVar(&o.queue, "queue", 0, "per-shard frame queue depth (0 = default)")
	flag.IntVar(&o.window, "window", 0, "max unacknowledged frames per session (0 = default)")
	flag.IntVar(&o.maxRecords, "maxrecords", 0, "max records per frame (0 = default)")
	flag.IntVar(&o.maxPayload, "maxpayload", 0, "max frame payload bytes (0 = default)")
	flag.DurationVar(&o.readTimeout, "readtimeout", 0, "per-frame read timeout (0 = default)")
	flag.DurationVar(&o.writeTimeout, "writetimeout", 0, "response flush timeout (0 = default)")
	flag.DurationVar(&o.drainTimeout, "draintimeout", 30*time.Second, "graceful drain budget after SIGTERM/SIGINT")
	flag.StringVar(&o.metricsAddr, "metrics", "", "serve /metrics and /vars on this address")
	flag.StringVar(&o.summaryJSON, "summaryjson", "", "write a JSON run summary to this file on exit")
	flag.StringVar(&o.logLevel, "log", "info", "structured log level: debug, info, warn, error, off")
	flag.StringVar(&o.tag, "tag", "", "instance label for logs and the run summary (useful under a cluster router)")
	flag.IntVar(&o.flightCap, "flightrecorder", 0, "trace the last N frames in an in-memory flight recorder (0 = off, served at /debug/flightrecorder on the -metrics address)")
	flag.DurationVar(&o.slo, "slo", 0, "log a per-hop breakdown for frames slower than this end to end (0 = off; needs -flightrecorder)")
	flag.BoolVar(&o.tuner, "tuner", false, "enable the per-session predictor auto-tuner")
	flag.StringVar(&o.tunerPolicy, "tunerpolicy", "", "default tuner policy, semicolon-separated k=v (e.g. \"interval=512;miss=0.10;target=ittage:8,512,2\"; empty = built-in defaults)")
	flag.IntVar(&o.tunerMax, "tunermax", 0, "max concurrently tuned sessions (0 = no cap)")
	flag.BoolVar(&o.readOnly, "readonly", false, "reject mutating admin verbs (kill/drain/retune) on the -metrics mux")
	o.pf.Register(flag.CommandLine)
	flag.Parse()
	if err := realMain(o); err != nil {
		fmt.Fprintln(os.Stderr, "ibpserved:", err)
		os.Exit(1)
	}
}

// runSummary is the -summaryjson artifact: enough for CI to assert a clean
// drain and archive the run's counters.
type runSummary struct {
	Addr     string             `json:"addr"`
	Tag      string             `json:"tag,omitempty"`
	Graceful bool               `json:"graceful"`
	Signal   string             `json:"signal,omitempty"`
	Uptime   string             `json:"uptime"`
	Flight   *flight.Stats      `json:"flight,omitempty"`
	Metrics  telemetry.Snapshot `json:"metrics,omitempty"`
}

func realMain(o options) error {
	level, err := telemetry.ParseLevel(o.logLevel)
	if err != nil {
		return err
	}
	log := telemetry.NewLogger(os.Stderr, level)
	if o.tag != "" {
		log = log.With("tag", o.tag)
	}
	if err := o.pf.Validate(); err != nil {
		return err
	}

	// The registry must exist before serve.New resolves its handles.
	var reg *telemetry.Registry
	if o.metricsAddr != "" || o.summaryJSON != "" {
		reg = telemetry.Enable(nil)
	}
	var rec *flight.Recorder
	if o.flightCap > 0 {
		service := "ibpserved"
		if o.tag != "" {
			service += "-" + o.tag
		}
		rec = flight.NewRecorder(flight.Options{
			Service:  service,
			Capacity: o.flightCap,
			SLO:      o.slo,
			Log:      log,
		})
		log.Info("flight recorder on", "capacity", o.flightCap, "slo", o.slo)
	}
	var tun *tuner.Tuner
	if o.tuner {
		policy := tuner.DefaultPolicy()
		if o.tunerPolicy != "" {
			policy, err = tuner.ParsePolicy(o.tunerPolicy)
			if err != nil {
				return fmt.Errorf("-tunerpolicy: %w", err)
			}
		}
		tun = tuner.New(tuner.Options{
			Policy:      policy,
			MaxSessions: o.tunerMax,
			Telemetry:   reg,
		})
		log.Info("tuner on", "policy", policy.String())
	} else if o.tunerPolicy != "" {
		return errors.New("-tunerpolicy requires -tuner")
	}
	// The server exists before the metrics mux so its session registry can
	// be mounted at /sessions*.
	srv, err := serve.New(serve.Config{
		Predictor:       o.pf,
		Shards:          o.shards,
		QueueDepth:      o.queue,
		Window:          o.window,
		MaxFramePayload: o.maxPayload,
		MaxFrameRecords: o.maxRecords,
		ReadTimeout:     o.readTimeout,
		WriteTimeout:    o.writeTimeout,
		Flight:          rec,
		Tuner:           tun,
		Tag:             o.tag,
		Log:             log,
	})
	if err != nil {
		return err
	}
	if o.metricsAddr != "" {
		mounts := []func(*http.ServeMux){
			func(mux *http.ServeMux) {
				sessiontrack.Mount(mux, sessiontrack.HTTPConfig{
					Local:     srv.Sessions(),
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
	fmt.Printf("ibpserved: listening on %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sum := runSummary{Addr: ln.Addr().String(), Tag: o.tag}
	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case sig := <-sigs:
		sum.Signal = sig.String()
		log.Info("signal received, draining", "signal", sig, "budget", o.drainTimeout)
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
		err := srv.Shutdown(ctx)
		close(forced)
		cancel()
		<-serveErr
		sum.Graceful = err == nil
		if err != nil {
			log.Warn("drain incomplete, sessions cut", "err", err)
		}
	}
	sum.Uptime = time.Since(start).String()
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
	fmt.Println("ibpserved: drained cleanly")
	return nil
}

func writeSummary(path string, sum runSummary) error {
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
