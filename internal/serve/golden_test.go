package serve

import (
	"testing"
	"time"

	"github.com/oocsb/ibp/internal/sim"
	"github.com/oocsb/ibp/internal/workload"
)

// TestServeGoldenEquivalence streams every benchmark of the paper's suite
// through a live server and requires the server-side accounting — executed,
// misses, no-prediction, and therefore the miss rate — to be bit-identical to
// a local sim.Run with the same predictor configuration. This is the
// correctness contract of the serve subsystem: moving prediction behind a
// socket must not change a single count. The default predictor reads no
// conditional records, so every session is granted elision and ships only
// indirect records; its acks and Summary must still count every record of
// the trace, in the same frames as a full session.
func TestServeGoldenEquivalence(t *testing.T) {
	const (
		n      = 4000
		warmup = 64
		frame  = 317 // deliberately odd so frame boundaries never align with anything
	)
	_, addr := startServer(t, Config{Shards: 4, Window: 4})

	for _, cfg := range workload.Suite() {
		tr := cfg.MustGenerate(n)

		c, err := Dial(addr, Hello{Benchmark: cfg.Name, Warmup: warmup}, DialOptions{Timeout: 20 * time.Second, Retries: 2})
		if err != nil {
			t.Fatalf("%s: dial: %v", cfg.Name, err)
		}
		if !c.Session().IndirectOnly {
			t.Fatalf("%s: default predictor session not granted elision", cfg.Name)
		}
		var acks []Ack
		sum, err := c.Stream(tr, frame, func(a Ack, _ time.Duration) { acks = append(acks, a) })
		c.Close()
		if err != nil {
			t.Fatalf("%s: stream: %v", cfg.Name, err)
		}

		pred, err := defaultFlags().Build()
		if err != nil {
			t.Fatal(err)
		}
		want := sim.Run(pred, tr, sim.Options{Warmup: warmup})

		if sum.Executed != want.Executed {
			t.Errorf("%s: executed %d, sim %d", cfg.Name, sum.Executed, want.Executed)
		}
		if sum.Misses != want.Misses {
			t.Errorf("%s: misses %d, sim %d", cfg.Name, sum.Misses, want.Misses)
		}
		if sum.NoPrediction != want.NoPrediction {
			t.Errorf("%s: noPrediction %d, sim %d", cfg.Name, sum.NoPrediction, want.NoPrediction)
		}
		wantRate := 0.0
		if want.Executed > 0 {
			wantRate = 100 * float64(want.Misses) / float64(want.Executed)
		}
		if sum.MissRate != wantRate {
			t.Errorf("%s: miss rate %v, sim %v (must be bit-identical)", cfg.Name, sum.MissRate, wantRate)
		}
		if sum.Records != len(tr) {
			t.Errorf("%s: records %d, trace %d", cfg.Name, sum.Records, len(tr))
		}
		frames := (len(tr) + frame - 1) / frame
		if sum.Frames != frames || len(acks) != frames {
			t.Errorf("%s: %d frames, %d acks, want %d of each", cfg.Name, sum.Frames, len(acks), frames)
		}
		var ackRecs, ackExec, ackMiss int
		for i, a := range acks {
			if want := min(frame, len(tr)-i*frame); a.Records != want {
				t.Errorf("%s: ack %d counts %d records, frame holds %d", cfg.Name, a.Seq, a.Records, want)
			}
			ackRecs += a.Records
			ackExec += a.Executed
			ackMiss += a.Misses
		}
		if ackRecs != len(tr) || ackExec != want.Executed || ackMiss != want.Misses {
			t.Errorf("%s: acks sum to %d records/%d executed/%d misses, want %d/%d/%d",
				cfg.Name, ackRecs, ackExec, ackMiss, len(tr), want.Executed, want.Misses)
		}
		if n := len(acks); n > 0 && (acks[n-1].TotalExecuted != want.Executed ||
			acks[n-1].TotalMisses != want.Misses || acks[n-1].TotalNoPrediction != want.NoPrediction) {
			t.Errorf("%s: last ack totals %+v, sim %d/%d/%d", cfg.Name, acks[n-1],
				want.Executed, want.Misses, want.NoPrediction)
		}
	}
}
