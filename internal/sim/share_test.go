package sim

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"

	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/ptrace"
	"github.com/oocsb/ibp/internal/telemetry"
	"github.com/oocsb/ibp/internal/workload"
)

// countingComp is a two-level component that counts its steps, so a test
// can check that the batch engine stepped a shared component once per
// branch.
type countingComp struct {
	*core.TwoLevel
	updates int
}

func (c *countingComp) Update(pc, target uint32) {
	c.updates++
	c.TwoLevel.Update(pc, target)
}

// shareCfgs are the component configurations of the sharing test: two
// dual-path components, a tagless one, and a §3.3 IncludeCond one, which a
// hybrid must not hand conditional records.
var shareCfgs = []core.Config{
	core.DualPathComponent(1, "assoc4", 256),
	core.DualPathComponent(3, "assoc4", 256),
	core.DualPathComponent(6, "tagless", 512),
	{PathLength: 2, Precision: core.AutoPrecision, TableKind: "assoc2", Entries: 128, IncludeCond: true},
}

func unboundedShadow() core.Predictor {
	return core.MustTwoLevel(core.Config{PathLength: 3, Precision: core.AutoPrecision, TableKind: "unbounded"})
}

// TestRunBatchSharedComponentsMatchPrivate is the sharing contract: hybrid
// lanes that hold components by pointer get, lane by lane, the Result of a
// fresh private-component Run (Executed, Misses, NoPrediction, capacity
// misses, PerSite and the per-run Tables), and each shared component is
// stepped once per indirect branch. The batch mixes in lanes that keep
// private predictors: an event-sink lane, shadowed lanes and lanes with
// their own Warmup/FlushEvery.
func TestRunBatchSharedComponentsMatchPrivate(t *testing.T) {
	telemetry.Enable(nil)
	defer telemetry.Disable()
	full := workload.Suite()[0].MustGenerate(3000) // includes conditional records
	indirect := 0
	for _, r := range full {
		if r.Kind.Indirect() {
			indirect++
		}
	}

	shared := make([]*countingComp, len(shareCfgs))
	for i, cfg := range shareCfgs {
		shared[i] = &countingComp{TwoLevel: core.MustTwoLevel(cfg)}
	}
	flushA := &countingComp{TwoLevel: core.MustTwoLevel(shareCfgs[0])}
	flushB := &countingComp{TwoLevel: core.MustTwoLevel(shareCfgs[1])}
	sharedHybrid := func(cs ...*countingComp) core.Predictor {
		comps := make([]core.Component, len(cs))
		for i, c := range cs {
			comps[i] = c
		}
		return core.MustHybrid(comps...)
	}
	privateHybrid := func(idx ...int) core.Predictor {
		cfgs := make([]core.Config, len(idx))
		for i, j := range idx {
			cfgs[i] = shareCfgs[j]
		}
		h, err := core.NewTwoLevelHybrid(cfgs...)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	type laneCase struct {
		name  string
		batch core.Predictor
		comps []int // the configurations a fresh private predictor is built from
		opts  Options
	}
	events := ptrace.NewEventSink(0, 1)
	cases := []laneCase{
		{"shared-0.1", sharedHybrid(shared[0], shared[1]), []int{0, 1}, Options{}},
		{"shared-1.0-warmup", sharedHybrid(shared[1], shared[0]), []int{1, 0}, Options{Warmup: 100}},
		{"shared-0.1.2-sites", sharedHybrid(shared[0], shared[1], shared[2]), []int{0, 1, 2}, Options{Sites: true}},
		{"shared-2.3-shadow", sharedHybrid(shared[2], shared[3]), []int{2, 3}, Options{Shadow: unboundedShadow()}},
		{"shared-flush", sharedHybrid(flushA, flushB), []int{0, 1}, Options{FlushEvery: 173}},
		{"shared-flush-warmup", sharedHybrid(flushB, flushA), []int{1, 0}, Options{FlushEvery: 173, Warmup: 50}},
		{"private-events", privateHybrid(0, 1), []int{0, 1}, Options{Events: events}},
		{"private-flush", privateHybrid(1, 2), []int{1, 2}, Options{FlushEvery: 211}},
		{"private-shadow", privateHybrid(0, 3), []int{0, 3}, Options{Shadow: unboundedShadow(), Warmup: 70}},
		{"plain", core.MustTwoLevel(shareCfgs[3]), nil, Options{Sites: true}},
	}
	ps := make([]core.Predictor, len(cases))
	opts := make([]Options, len(cases))
	for i, c := range cases {
		ps[i], opts[i] = c.batch, c.opts
	}
	got, err := RunBatchEach(context.Background(), ps, full, opts)
	if err != nil {
		t.Fatalf("RunBatchEach: %v", err)
	}
	for i, c := range cases {
		var fresh core.Predictor
		if c.comps == nil {
			fresh = core.MustTwoLevel(shareCfgs[3])
		} else {
			fresh = privateHybrid(c.comps...)
		}
		o := c.opts
		if o.Shadow != nil {
			o.Shadow = unboundedShadow()
		}
		if o.Events != nil {
			o.Events = ptrace.NewEventSink(0, 1)
		}
		want := Run(fresh, full, o)
		if want.Tables == nil {
			t.Fatalf("lane %q: no Tables with telemetry on", c.name)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("lane %q: batch %+v != private run %+v", c.name, got[i], want)
		}
	}
	for i, c := range append(shared, flushA, flushB) {
		if c.updates != indirect {
			t.Errorf("shared component %d stepped %d times over %d indirect branches", i, c.updates, indirect)
		}
	}
}

// panicComp is a component that panics on its n-th Update.
type panicComp struct{ n int }

func (p *panicComp) Predict(pc uint32) (uint32, bool)            { return 0, false }
func (p *panicComp) PredictConf(pc uint32) (uint32, uint8, bool) { return 0, 0, false }
func (p *panicComp) Name() string                                { return "panic-comp" }
func (p *panicComp) Update(pc, target uint32) {
	if p.n--; p.n <= 0 {
		panic("component blew up")
	}
}

// TestRunBatchSharedComponentPanicKillsItsLanes: a shared component that
// panics kills exactly the lanes holding it; a lane sharing only healthy
// components with them, and an unrelated lane, finish with the results of
// private runs.
func TestRunBatchSharedComponentPanicKillsItsLanes(t *testing.T) {
	tr := workload.Suite()[1].MustGenerate(2 * blockSize)
	a, b := core.MustTwoLevel(shareCfgs[0]), core.MustTwoLevel(shareCfgs[1])
	bad := &panicComp{n: blockSize + 100} // dies in the second block
	ps := []core.Predictor{
		core.MustHybrid(bad, a),
		core.MustHybrid(a, b),
		core.NewBTB(nil, core.UpdateTwoMiss),
		core.MustHybrid(b, bad),
	}
	rs, err := RunBatchEach(context.Background(), ps, tr, make([]Options, len(ps)))
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want a BatchError", err)
	}
	var dead []int
	for _, le := range be.Lanes {
		var pe *PanicError
		if !errors.As(le.Err, &pe) || pe.Val != "component blew up" {
			t.Errorf("lane %d: %v does not carry the component's panic", le.Lane, le.Err)
		}
		dead = append(dead, le.Lane)
	}
	sort.Ints(dead)
	if !reflect.DeepEqual(dead, []int{0, 3}) {
		t.Fatalf("dead lanes %v, want exactly [0 3]", dead)
	}
	h, err := core.NewTwoLevelHybrid(shareCfgs[0], shareCfgs[1])
	if err != nil {
		t.Fatal(err)
	}
	if want := Run(h, tr, Options{}); !reflect.DeepEqual(rs[1], want) {
		t.Errorf("surviving sharer: %+v != private run %+v", rs[1], want)
	}
	if want := Run(core.NewBTB(nil, core.UpdateTwoMiss), tr, Options{}); !reflect.DeepEqual(rs[2], want) {
		t.Errorf("unrelated lane: %+v != private run %+v", rs[2], want)
	}
}

// TestRunBatchRejectsUnsafeSharing: sharing a component is refused where
// the lanes could not all see private-component results.
func TestRunBatchRejectsUnsafeSharing(t *testing.T) {
	tr := cycleTrace(0x1000, []uint32{0x2000, 0x3000}, 100)
	a, b := core.MustTwoLevel(shareCfgs[0]), core.MustTwoLevel(shareCfgs[1])
	hybrids := []core.Predictor{core.MustHybrid(a, b), core.MustHybrid(b, a)}
	cases := []struct {
		name string
		ps   []core.Predictor
		opts []Options
	}{
		{"event sink", hybrids, []Options{{}, {Events: ptrace.NewEventSink(0, 1)}}},
		{"differing FlushEvery", hybrids, []Options{{FlushEvery: 10}, {FlushEvery: 20}}},
		{"component as a lane", append([]core.Predictor{a}, hybrids...), make([]Options, 3)},
	}
	for _, c := range cases {
		if _, err := RunBatchEach(context.Background(), c.ps, tr, c.opts); err == nil {
			t.Errorf("%s: sharing accepted", c.name)
		}
	}
	// Sharing with equal FlushEvery is fine.
	if _, err := RunBatchEach(context.Background(), hybrids, tr, []Options{{FlushEvery: 10}, {FlushEvery: 10, Warmup: 5}}); err != nil {
		t.Errorf("equal FlushEvery rejected: %v", err)
	}
}
