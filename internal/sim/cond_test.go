package sim

import (
	"flag"
	"testing"

	"github.com/oocsb/ibp/internal/cli"
	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/trace"
	"github.com/oocsb/ibp/internal/workload"
)

// condReference is the record loop as it stood before conditional records
// were routed by core.ConsumesCond: every CondObserver, subject and shadow,
// sees every conditional record.
func condReference(p, shadow core.Predictor, tr trace.Trace, warmup int) Result {
	obs, _ := p.(core.CondObserver)
	shadowObs, _ := shadow.(core.CondObserver)
	res := Result{Warmup: warmup}
	seen := 0
	for _, r := range tr {
		if r.Kind == trace.Cond {
			if obs != nil {
				obs.ObserveCond(r.PC, r.Target, r.Target != 0)
			}
			if shadowObs != nil {
				shadowObs.ObserveCond(r.PC, r.Target, r.Target != 0)
			}
			continue
		}
		if !r.Kind.Indirect() {
			continue
		}
		pred, ok := p.Predict(r.PC)
		p.Update(r.PC, r.Target)
		st, sok := shadow.Predict(r.PC)
		shadow.Update(r.PC, r.Target)
		seen++
		if seen <= warmup {
			continue
		}
		res.Executed++
		if !ok || pred != r.Target {
			res.Misses++
			if !ok {
				res.NoPrediction++
			}
			if sok && st == r.Target {
				res.CapacityMisses++
			}
		}
	}
	return res
}

// TestConsumesCondPerPredictor pins which predictors read conditional
// records — the fact the serve wire's record elision rests on — over every
// -pred kind plus the §3.3 TwoLevel variation, and checks that routing
// conditional records by core.ConsumesCond leaves sim.Run's results (subject
// and shadow) equal to delivering them to every CondObserver. For a
// non-consuming predictor the trace's indirect records alone must give the
// same result; for a consuming one they must not, or the predicate would
// be vacuous on this trace.
func TestConsumesCondPerPredictor(t *testing.T) {
	const warmup = 64
	wl, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	tr := wl.MustGenerate(2000)
	indirect := tr.Indirect()
	if tr.CountKind(trace.Cond) == 0 {
		t.Fatal("trace carries no conditional records")
	}

	flags := func(pred, hybrid string) func() (core.Predictor, error) {
		return func() (core.Predictor, error) {
			var f cli.PredictorFlags
			f.Register(flag.NewFlagSet("pred", flag.ContinueOnError))
			f.Pred, f.Hybrid = pred, hybrid
			return f.Build()
		}
	}
	rows := []struct {
		name     string
		mk       func() (core.Predictor, error)
		consumes bool
	}{
		{"2lev", flags("2lev", ""), false},
		{"btb", flags("btb", ""), false},
		{"btb-2bc", flags("btb-2bc", ""), false},
		{"tcache", flags("tcache", ""), true},
		{"ppm", flags("ppm", "1,3"), false},
		{"shared", flags("shared", "1,3"), false},
		{"ittage", flags("ittage", ""), false},
		{"2lev-includecond", func() (core.Predictor, error) {
			var f cli.PredictorFlags
			f.Register(flag.NewFlagSet("pred", flag.ContinueOnError))
			cfg, err := f.TwoLevelConfig()
			if err != nil {
				return nil, err
			}
			cfg.IncludeCond = true
			return core.NewTwoLevel(cfg)
		}, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			mk := func() core.Predictor {
				t.Helper()
				p, err := row.mk()
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			p := mk()
			if got := core.ConsumesCond(p); got != row.consumes {
				t.Fatalf("ConsumesCond(%s) = %v, want %v", p.Name(), got, row.consumes)
			}
			got := Run(p, tr, Options{Warmup: warmup, Shadow: mk()})
			want := condReference(mk(), mk(), tr, warmup)
			if got.Executed != want.Executed || got.Misses != want.Misses ||
				got.NoPrediction != want.NoPrediction || got.CapacityMisses != want.CapacityMisses {
				t.Fatalf("Run = %d/%d/%d/%d executed/misses/noPred/capacity, every-observer reference %d/%d/%d/%d",
					got.Executed, got.Misses, got.NoPrediction, got.CapacityMisses,
					want.Executed, want.Misses, want.NoPrediction, want.CapacityMisses)
			}
			elided := Run(mk(), indirect, Options{Warmup: warmup})
			same := elided.Executed == got.Executed && elided.Misses == got.Misses &&
				elided.NoPrediction == got.NoPrediction
			if same == row.consumes {
				t.Fatalf("indirect-only run %v vs full run %v: equal=%v for a predictor with ConsumesCond=%v",
					elided, got, same, row.consumes)
			}
		})
	}
}
