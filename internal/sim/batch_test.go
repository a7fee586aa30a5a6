package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/oocsb/ibp/internal/bits"
	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/workload"
)

// batchLaneSpec builds one lane for the batch-vs-sequential equivalence
// test: fresh predictors (and shadows) are constructed per run so the two
// engines start from identical state.
type batchLaneSpec struct {
	name     string
	mk       func(t *testing.T) core.Predictor
	mkShadow func(t *testing.T) core.Predictor
	opts     Options // Shadow filled from mkShadow per run
}

func mk2lev(cfg core.Config) func(t *testing.T) core.Predictor {
	return func(t *testing.T) core.Predictor {
		t.Helper()
		p, err := core.NewTwoLevel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
}

// equivalenceLanes covers every table organization, the exact/unbounded §3
// modes, BTB, the hybrid predictors, and each Options knob (Warmup,
// FlushEvery, Shadow, Sites) plus their combination.
func equivalenceLanes() []batchLaneSpec {
	bounded := func(p int, kind string, entries int) core.Config {
		return core.Config{PathLength: p, Precision: core.AutoPrecision,
			Scheme: bits.Reverse, TableKind: kind, Entries: entries}
	}
	lanes := []batchLaneSpec{
		{name: "exact", mk: mk2lev(core.Config{PathLength: 4, Precision: 0})},
		{name: "unbounded", mk: mk2lev(core.Config{PathLength: 4, Precision: core.AutoPrecision})},
		{name: "tagless", mk: mk2lev(bounded(6, "tagless", 512))},
		{name: "assoc1", mk: mk2lev(bounded(2, "assoc1", 256))},
		{name: "assoc2", mk: mk2lev(bounded(6, "assoc2", 512))},
		{name: "assoc4", mk: mk2lev(bounded(3, "assoc4", 512))},
		{name: "fullassoc", mk: mk2lev(bounded(2, "fullassoc", 128))},
		{name: "pingpong", mk: mk2lev(core.Config{PathLength: 4, Precision: core.AutoPrecision,
			Scheme: bits.PingPong, TableKind: "assoc1", Entries: 256})},
		{name: "include-cond", mk: mk2lev(core.Config{PathLength: 4, Precision: core.AutoPrecision,
			IncludeCond: true})},
		{name: "btb", mk: func(t *testing.T) core.Predictor {
			return core.NewBTB(nil, core.UpdateTwoMiss)
		}},
		{name: "hybrid", mk: func(t *testing.T) core.Predictor {
			t.Helper()
			h, err := core.NewDualPath(1, 3, "assoc4", 256)
			if err != nil {
				t.Fatal(err)
			}
			return h
		}},
		{name: "shared-hybrid", mk: func(t *testing.T) core.Predictor {
			t.Helper()
			h, err := core.NewSharedHybrid(3, 1, "assoc4", 512)
			if err != nil {
				t.Fatal(err)
			}
			return h
		}},
		{name: "ittage", mk: mkITTAGE(4, 256, 2)},
	}
	// Options knobs over a representative subject.
	withOpts := func(name string, opts Options) batchLaneSpec {
		return batchLaneSpec{name: name, mk: mk2lev(bounded(3, "assoc4", 256)), opts: opts}
	}
	lanes = append(lanes,
		withOpts("warmup", Options{Warmup: 100}),
		withOpts("flush", Options{FlushEvery: 173}),
		withOpts("sites", Options{Sites: true}),
		withOpts("all-knobs", Options{Warmup: 50, FlushEvery: 211, Sites: true}),
	)
	shadowed := batchLaneSpec{
		name: "shadowed",
		mk:   mk2lev(bounded(3, "assoc4", 64)),
		mkShadow: func(t *testing.T) core.Predictor {
			t.Helper()
			cfg := core.Config{PathLength: 3, Precision: core.AutoPrecision, TableKind: "unbounded"}
			p, err := core.NewTwoLevel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
	}
	return append(lanes, shadowed)
}

// TestRunBatchMatchesSequential is the engine's golden equivalence guarantee:
// for every lane configuration, one batched pass must produce a Result
// byte-identical to a sequential Run of a fresh predictor. The benchmark CI
// job greps for this test being skipped, so it must never t.Skip.
func TestRunBatchMatchesSequential(t *testing.T) {
	cfg := workload.Suite()[0]
	full := cfg.MustGenerate(2000) // includes conditional records

	specs := equivalenceLanes()
	ps := make([]core.Predictor, len(specs))
	opts := make([]Options, len(specs))
	for i, s := range specs {
		ps[i] = s.mk(t)
		opts[i] = s.opts
		if s.mkShadow != nil {
			opts[i].Shadow = s.mkShadow(t)
		}
	}
	batch, err := RunBatchEach(context.Background(), ps, full, opts)
	if err != nil {
		t.Fatalf("RunBatchEach: %v", err)
	}
	for i, s := range specs {
		seq := s.opts
		if s.mkShadow != nil {
			seq.Shadow = s.mkShadow(t)
		}
		want := Run(s.mk(t), full, seq)
		if !reflect.DeepEqual(batch[i], want) {
			t.Errorf("lane %q: batch %+v != sequential %+v", s.name, batch[i], want)
		}
	}
}

func mkITTAGE(banks, entries, minHist int) func(t *testing.T) core.Predictor {
	return func(t *testing.T) core.Predictor {
		t.Helper()
		p, err := core.NewITTAGE(banks, entries, minHist)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
}

// TestRunBatchITTAGESuiteEquivalence is ITTAGE's membership proof in the
// engine equivalence guarantee, across the full paper suite: for every
// benchmark, one batched pass matches a sequential run byte for byte, and a
// single predictor reused across benchmarks with the O(1) gen-stamped
// Reset() between them matches a freshly constructed predictor on each — so
// Reset really is "as new". The benchmark CI job greps for this test being
// skipped, so it must never t.Skip.
func TestRunBatchITTAGESuiteEquivalence(t *testing.T) {
	reused := mkITTAGE(4, 256, 2)(t)
	for _, cfg := range workload.Suite() {
		tr := cfg.MustGenerate(1500)
		opts := Options{Warmup: 100}

		batch, err := RunBatchEach(context.Background(),
			[]core.Predictor{mkITTAGE(4, 256, 2)(t)}, tr, []Options{opts})
		if err != nil {
			t.Fatalf("%s: RunBatchEach: %v", cfg.Name, err)
		}
		want := Run(mkITTAGE(4, 256, 2)(t), tr, opts)
		if !reflect.DeepEqual(batch[0], want) {
			t.Errorf("%s: batch %+v != sequential %+v", cfg.Name, batch[0], want)
		}

		reused.(core.Resetter).Reset()
		if got := Run(reused, tr, opts); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Reset-reused %+v != fresh %+v", cfg.Name, got, want)
		}
	}
}

// TestRunBatchSharedOptions exercises the RunBatch wrapper (shared Options)
// against sequential runs.
func TestRunBatchSharedOptions(t *testing.T) {
	tr := cycleTrace(0x1000, []uint32{0x2000, 0x3000, 0x4000}, 400)
	mk := func() []core.Predictor {
		return []core.Predictor{
			core.NewBTB(nil, core.UpdateTwoMiss),
			core.MustTwoLevel(core.Config{PathLength: 2, Precision: core.AutoPrecision,
				TableKind: "assoc2", Entries: 64}),
		}
	}
	opts := Options{Warmup: 10}
	batch, err := RunBatch(context.Background(), mk(), tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range mk() {
		want := Run(p, tr, opts)
		if !reflect.DeepEqual(batch[i], want) {
			t.Errorf("lane %d: batch %+v != sequential %+v", i, batch[i], want)
		}
	}
}

func TestRunBatchRejectsSharedShadow(t *testing.T) {
	shadow := core.MustTwoLevel(core.Config{PathLength: 0, Precision: core.AutoPrecision})
	ps := []core.Predictor{
		core.NewBTB(nil, core.UpdateAlways),
		core.NewBTB(nil, core.UpdateTwoMiss),
	}
	if _, err := RunBatch(context.Background(), ps, nil, Options{Shadow: shadow}); err == nil {
		t.Fatal("RunBatch accepted one shadow for two lanes")
	}
	// A single lane may carry a shadow through RunBatch.
	if _, err := RunBatch(context.Background(), ps[:1], nil, Options{Shadow: shadow}); err != nil {
		t.Fatalf("single-lane shadow rejected: %v", err)
	}
}

// panicAfter panics on the n-th Update.
type panicAfter struct {
	n int
}

func (p *panicAfter) Predict(pc uint32) (uint32, bool) { return 0, false }
func (p *panicAfter) Update(pc, target uint32) {
	p.n--
	if p.n <= 0 {
		panic("predictor blew up")
	}
}
func (p *panicAfter) Name() string { return "panic-after" }

// TestRunBatchIsolatesLanePanic: a panicking predictor degrades its own lane
// and leaves the others' results untouched.
func TestRunBatchIsolatesLanePanic(t *testing.T) {
	tr := cycleTrace(0x1000, []uint32{0x2000, 0x3000}, 300)
	good := func() core.Predictor { return core.NewBTB(nil, core.UpdateTwoMiss) }
	ps := []core.Predictor{good(), &panicAfter{n: 100}, good()}
	rs, err := RunBatch(context.Background(), ps, tr, Options{})
	if err == nil {
		t.Fatal("lane panic not reported")
	}
	var be *BatchError
	if !errors.As(err, &be) || len(be.Lanes) != 1 || be.Lanes[0].Lane != 1 {
		t.Fatalf("err = %v, want BatchError for lane 1", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Val != "predictor blew up" {
		t.Fatalf("lane error does not carry the panic value: %v", err)
	}
	want := Run(good(), tr, Options{})
	for _, i := range []int{0, 2} {
		if !reflect.DeepEqual(rs[i], want) {
			t.Errorf("healthy lane %d: %+v != %+v", i, rs[i], want)
		}
	}
}

// TestRunContextRepanics: the single-lane wrappers preserve the historical
// contract that predictor panics propagate to the caller.
func TestRunContextRepanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "predictor blew up" {
			t.Fatalf("recovered %v, want the original panic value", r)
		}
	}()
	tr := cycleTrace(0x1000, []uint32{0x2000}, 10)
	Run(&panicAfter{n: 3}, tr, Options{})
	t.Fatal("Run returned despite predictor panic")
}

// TestLaneStepMatchesRun: a Lane stepped over the trace in uneven blocks —
// the way a streaming caller receives records — accounts exactly like Run,
// for every lane configuration of the equivalence test.
func TestLaneStepMatchesRun(t *testing.T) {
	full := workload.Suite()[0].MustGenerate(2000) // includes conditional records
	for _, s := range equivalenceLanes() {
		opts := s.opts
		if s.mkShadow != nil {
			opts.Shadow = s.mkShadow(t)
		}
		l := NewLane(s.mk(t), opts)
		for base := 0; base < len(full); base += 97 {
			if err := l.Step(full[base:min(base+97, len(full))]); err != nil {
				t.Fatalf("lane %q: %v", s.name, err)
			}
		}
		if s.mkShadow != nil {
			opts.Shadow = s.mkShadow(t)
		}
		if want := Run(s.mk(t), full, opts); !reflect.DeepEqual(l.Result(), want) {
			t.Errorf("lane %q: stepped %+v != Run %+v", s.name, l.Result(), want)
		}
	}
}

// TestLaneStepPanicIsSticky: a predictor panic surfaces from Step as a
// *PanicError, and the dead lane never calls the predictor again.
func TestLaneStepPanicIsSticky(t *testing.T) {
	tr := cycleTrace(0x1000, []uint32{0x2000}, 10)
	p := &panicAfter{n: 3}
	l := NewLane(p, Options{})
	var pe *PanicError
	if err := l.Step(tr); !errors.As(err, &pe) || pe.Val != "predictor blew up" {
		t.Fatalf("Step err = %v, want the predictor's PanicError", err)
	}
	if err := l.Step(tr); !errors.As(err, &pe) || p.n != 0 {
		t.Fatalf("second Step: err %v, predictor updated %d more times", err, -p.n)
	}
}

// TestRunBatchCancellation: cancellation returns partial results with
// ctx.Err() identity preserved.
func TestRunBatchCancellation(t *testing.T) {
	tr := cycleTrace(0x1000, []uint32{0x2000, 0x3000}, 2*blockSize)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rs, err := RunBatch(ctx, []core.Predictor{core.NewBTB(nil, core.UpdateTwoMiss)}, tr, Options{})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled identity", err)
	}
	if rs[0].Executed >= len(tr) {
		t.Errorf("cancelled batch executed all %d branches", rs[0].Executed)
	}
}
