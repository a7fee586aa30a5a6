package serve

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/flight"
	"github.com/oocsb/ibp/internal/sessiontrack"
	"github.com/oocsb/ibp/internal/tuner"
	"github.com/oocsb/ibp/internal/workload"
)

// BenchmarkServeLoopback measures end-to-end serve throughput over a loopback
// TCP connection: framing, checksums, shard hand-off, prediction, and the
// ack stream, reported as logical records/s (elided records included) next
// to the bytes on the wire per indirect branch.
func BenchmarkServeLoopback(b *testing.B) {
	benchServeLoopback(b, nil, false)
}

// BenchmarkServeLoopbackTraced is the same loop with the flight recorder on:
// every frame gets a span, five hop stamps, a ring publish, and four
// histogram observations. CI asserts its records/s stays within 5% of the
// untraced run.
func BenchmarkServeLoopbackTraced(b *testing.B) {
	rec := flight.NewRecorder(flight.Options{Service: "bench"})
	benchServeLoopback(b, rec, false)
}

// BenchmarkServeLoopbackStreamed is the same loop with a /sessions/stream
// consumer attached at the fastest allowed interval (100ms) — the cost of
// someone watching ibptop while the server runs flat out. CI asserts its
// records/s stays within 5% of the unwatched run.
func BenchmarkServeLoopbackStreamed(b *testing.B) {
	benchServeLoopback(b, nil, true)
}

// BenchmarkServeLoopbackTuned is the same loop with the tuner observing
// every record and voting at every frame boundary, but with thresholds set
// so no swap ever fires — the steady-state sampling cost of -tuner, which
// is the price every tuned session pays whether or not it escalates. CI
// asserts its records/s stays within 5% of the untuned run.
func BenchmarkServeLoopbackTuned(b *testing.B) {
	policy, err := tuner.ParsePolicy("warmup=0;interval=512;miss=0.99;low=0.001")
	if err != nil {
		b.Fatal(err)
	}
	benchServeLoopbackCfg(b, Config{Tuner: tuner.New(tuner.Options{Policy: policy})}, false)
}

func benchServeLoopback(b *testing.B, rec *flight.Recorder, streamed bool) {
	benchServeLoopbackCfg(b, Config{Flight: rec}, streamed)
}

func benchServeLoopbackCfg(b *testing.B, cfg Config, streamed bool) {
	wl, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	tr := wl.MustGenerate(20000)
	cfg.Predictor, cfg.Shards, cfg.Window = defaultFlags(), 2, 8
	srv, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	go srv.ListenAndServe("127.0.0.1:0")
	for srv.Addr() == "" {
		time.Sleep(time.Millisecond)
	}
	addr := srv.Addr()

	if streamed {
		mux := http.NewServeMux()
		sessiontrack.Mount(mux, sessiontrack.HTTPConfig{Local: srv.Sessions()})
		ms := httptest.NewServer(mux)
		defer ms.Close()
		resp, err := http.Get(ms.URL + "/sessions/stream?interval=100ms")
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		go func() {
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
			for sc.Scan() {
			}
		}()
	}

	var wire int64 // bytes both ways, handshake included
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, tap := dialTap(b, addr, Hello{Benchmark: "gcc"}, false)
		sum, err := c.Stream(tr, 2048, nil)
		c.Close()
		wire += tap.wire.Load()
		if err != nil {
			b.Fatal(err)
		}
		if sum.Records != len(tr) {
			b.Fatalf("summary records %d, want %d", sum.Records, len(tr))
		}
	}
	b.StopTimer()
	elapsed := b.Elapsed()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*len(tr))/elapsed.Seconds(), "records/s")
	}
	b.ReportMetric(float64(wire)/float64(b.N*len(tr.Indirect())), "wire-B/indirect")
}
