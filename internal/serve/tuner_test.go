package serve

import (
	"strings"
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/sim"
	"github.com/oocsb/ibp/internal/tuner"
	"github.com/oocsb/ibp/internal/workload"
)

// aggressivePolicy trips on the first post-warmup window of any real
// workload: every window votes to escalate and one vote is enough.
const aggressivePolicy = "warmup=0;interval=256;miss=0.01;low=0.001;hyst=1;swaps=1;coldmax=1;target=ittage:4,256,2"

func tunedServer(t *testing.T, spec string) (*Server, string) {
	t.Helper()
	policy, err := tuner.ParsePolicy(spec)
	if err != nil {
		t.Fatal(err)
	}
	return startServer(t, Config{
		Shards: 2,
		Window: 4,
		Tuner:  tuner.New(tuner.Options{Policy: policy}),
	})
}

// TestTunerSwapBitReproducible is the tuner's correctness contract: a
// session whose predictor was hot-swapped mid-stream must finish with a
// Summary bit-identical to a session that ran the swap target from its
// first record — the swap replays the whole retained history — and two
// identical runs must land identical summaries (decisions are functions of
// the record stream, never the clock). The rows cover every path of the
// replay: with base 2lev and target ittage nothing reads conditional
// records, so the session is granted elision and the history holds the
// elided frames; the same session sending full frames (a client that ignores
// the grant) must land the same summary; tcache reads every conditional
// record, so its session is not granted elision. The tuner and serve CI jobs
// grep for this test, so it must never t.Skip.
func TestTunerSwapBitReproducible(t *testing.T) {
	const (
		n      = 6000
		warmup = 64
		frame  = 317
	)
	cfg := workload.Suite()[0]
	tr := cfg.MustGenerate(n)
	for _, row := range []struct {
		name, spec string
		fullFrames bool // the client ignores an elision grant
		elided     bool // the session is granted elision
	}{
		{"ittage:4,256,2", "ittage:4,256,2", false, true},
		{"ittage:4,256,2-full-frames", "ittage:4,256,2", true, true},
		{"tcache", "tcache", false, false},
	} {
		spec := row.spec
		t.Run(row.name, func(t *testing.T) {
			_, addr := tunedServer(t, strings.Replace(aggressivePolicy, "target=ittage:4,256,2", "target="+spec, 1))

			run := func() Summary {
				t.Helper()
				c, err := Dial(addr, Hello{Benchmark: cfg.Name, Warmup: warmup}, DialOptions{Timeout: 20 * time.Second, Retries: 2})
				if err != nil {
					t.Fatalf("dial: %v", err)
				}
				if c.Session().IndirectOnly != row.elided {
					t.Fatalf("elision granted = %v, want %v", c.Session().IndirectOnly, row.elided)
				}
				if row.fullFrames {
					c.ack.IndirectOnly = false
				}
				sum, err := c.Stream(tr, frame, nil)
				c.Close()
				if err != nil {
					t.Fatalf("stream: %v", err)
				}
				return sum
			}

			// Bit-identical to running the escalation target from the
			// first record.
			target, err := tuner.PredictorFor(spec)
			if err != nil {
				t.Fatal(err)
			}
			pred, err := target.Build()
			if err != nil {
				t.Fatal(err)
			}
			sum := run()
			if sum.Predictor != pred.Name() {
				t.Fatalf("session finished on %q, want %q — the tuner never escalated", sum.Predictor, pred.Name())
			}
			want := sim.Run(pred, tr, sim.Options{Warmup: warmup})
			if sum.Executed != want.Executed || sum.Misses != want.Misses || sum.NoPrediction != want.NoPrediction {
				t.Errorf("swapped session: executed/misses/noPred = %d/%d/%d, target-from-start sim = %d/%d/%d",
					sum.Executed, sum.Misses, sum.NoPrediction, want.Executed, want.Misses, want.NoPrediction)
			}
			wantRate := 0.0
			if want.Executed > 0 {
				wantRate = 100 * float64(want.Misses) / float64(want.Executed)
			}
			if sum.MissRate != wantRate {
				t.Errorf("miss rate %v, want %v (must be bit-identical)", sum.MissRate, wantRate)
			}
			if frames := (len(tr) + frame - 1) / frame; sum.Records != len(tr) || sum.Frames != frames {
				t.Errorf("summary counts %d records in %d frames, want %d in %d", sum.Records, sum.Frames, len(tr), frames)
			}

			// Same trace, same policy: the rerun must land the identical
			// summary.
			again := run()
			if again.Executed != sum.Executed || again.Misses != sum.Misses ||
				again.NoPrediction != sum.NoPrediction || again.MissRate != sum.MissRate ||
				again.Predictor != sum.Predictor {
				t.Errorf("rerun diverged: %+v vs %+v", again, sum)
			}
		})
	}
}

// TestTunerUntunedSessionsUnchanged: with the tuner enabled but thresholds
// unreachable, summaries stay bit-identical to the untuned server.
func TestTunerUntunedSessionsUnchanged(t *testing.T) {
	const (
		n      = 3000
		warmup = 64
		frame  = 257
	)
	_, addr := tunedServer(t, "warmup=0;interval=1000000;miss=0.99;low=0.001")
	cfg := workload.Suite()[0]
	tr := cfg.MustGenerate(n)

	c, err := Dial(addr, Hello{Benchmark: cfg.Name, Warmup: warmup}, DialOptions{Timeout: 20 * time.Second, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := c.Stream(tr, frame, nil)
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	pred, err := defaultFlags().Build()
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Run(pred, tr, sim.Options{Warmup: warmup})
	if sum.Executed != want.Executed || sum.Misses != want.Misses || sum.NoPrediction != want.NoPrediction {
		t.Errorf("idle-tuner session: %d/%d/%d, sim %d/%d/%d",
			sum.Executed, sum.Misses, sum.NoPrediction, want.Executed, want.Misses, want.NoPrediction)
	}
}

// TestTunerHelloPolicyOverride: a session-supplied Hello.TunerPolicy
// replaces the server default, and a malformed one is rejected as BadHello
// even before any tuning happens.
func TestTunerHelloPolicyOverride(t *testing.T) {
	_, addr := tunedServer(t, "warmup=0;interval=1000000;miss=0.99;low=0.001")
	cfg := workload.Suite()[0]
	tr := cfg.MustGenerate(4000)

	c, err := Dial(addr, Hello{Benchmark: cfg.Name, Warmup: 64, TunerPolicy: aggressivePolicy},
		DialOptions{Timeout: 20 * time.Second, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := c.Stream(tr, 317, nil)
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sum.Predictor, "ittage") {
		t.Errorf("per-session policy ignored: finished on %q", sum.Predictor)
	}

	if _, err := Dial(addr, Hello{Benchmark: cfg.Name, TunerPolicy: "speed=9"},
		DialOptions{Timeout: 5 * time.Second}); err == nil {
		t.Error("malformed Hello.TunerPolicy accepted")
	}
}

// TestTunerPolicyValidatedWhenDisabled: even without -tuner, a malformed
// Hello.TunerPolicy is a BadHello — clients learn about the typo on the
// tuned fleet and the untuned one alike.
func TestTunerPolicyValidatedWhenDisabled(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 1})
	if _, err := Dial(addr, Hello{Benchmark: "x", TunerPolicy: "speed=9"},
		DialOptions{Timeout: 5 * time.Second}); err == nil {
		t.Error("tuner-disabled server accepted a malformed TunerPolicy")
	}
	c, err := Dial(addr, Hello{Benchmark: "x", TunerPolicy: aggressivePolicy},
		DialOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Errorf("tuner-disabled server rejected a well-formed TunerPolicy: %v", err)
	} else {
		c.Close()
	}
}
