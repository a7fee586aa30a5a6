package experiment

import (
	"reflect"
	"sync"
	"testing"

	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/sim"
	"github.com/oocsb/ibp/internal/telemetry"
)

// TestTraceSingleFlight hammers the trace caches from many goroutines: every
// caller must get the same backing array (the trace is generated exactly once
// and shared), for both the indirect-only and the full variants.
func TestTraceSingleFlight(t *testing.T) {
	ctx := tinyContext(t)
	cfg := ctx.Suite[0]
	const callers = 16
	indirect := make([][]uint32, callers) // first-element addresses as identity
	full := make([][]uint32, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := ctx.Trace(cfg)
			ftr := ctx.FullTrace(cfg)
			indirect[i] = []uint32{tr[0].PC, ftr[0].PC}
			full[i] = []uint32{uint32(len(tr)), uint32(len(ftr))}
		}()
	}
	wg.Wait()
	a := ctx.Trace(cfg)
	fa := ctx.FullTrace(cfg)
	for i := 0; i < callers; i++ {
		if indirect[i][0] != a[0].PC || indirect[i][1] != fa[0].PC {
			t.Fatalf("caller %d saw different trace head", i)
		}
		if int(full[i][0]) != len(a) || int(full[i][1]) != len(fa) {
			t.Fatalf("caller %d saw different trace length", i)
		}
	}
	// Identity check on the cache itself: repeated calls alias one array.
	b := ctx.Trace(cfg)
	if &a[0] != &b[0] {
		t.Error("indirect trace not cached")
	}
	fb := ctx.FullTrace(cfg)
	if &fa[0] != &fb[0] {
		t.Error("full trace not cached")
	}
}

// sweepGrid is a configuration grid wide enough to span multiple sweepChunk
// chunks, mixing table kinds so lanes are genuinely heterogeneous.
func sweepGrid() []core.Config {
	var cfgs []core.Config
	kinds := []string{"tagless", "assoc2", "fullassoc"}
	for p := 0; p <= 5; p++ {
		for _, kind := range kinds {
			cfgs = append(cfgs, boundedConfig(p, 0, kind, 256))
		}
	}
	return cfgs // 18 configs > sweepChunk
}

// TestSweepBatchMatchesSequential is the golden guarantee behind every
// batched experiment: running a grid of configurations through SweepConfigs
// (chunked lanes, shared trace passes, predictor reuse via Reset) must give
// exactly the rates of running each configuration alone.
func TestSweepBatchMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := tinyContext(t)
	cfgs := sweepGrid()
	batched, err := ctx.SweepConfigs(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ctx.TakeFailures()); n != 0 {
		t.Fatalf("%d degraded cells in healthy sweep", n)
	}
	for i, cfg := range cfgs {
		cfg := cfg
		solo, err := ctx.Sweep(func() (core.Predictor, error) { return core.NewTwoLevel(cfg) })
		if err != nil {
			t.Fatal(err)
		}
		if len(batched[i]) != len(solo) {
			t.Fatalf("config %d: %d benchmarks batched, %d solo", i, len(batched[i]), len(solo))
		}
		for bench, want := range solo {
			if got := batched[i][bench]; got != want {
				t.Errorf("config %d (%s): %s: batched %v != solo %v",
					i, cfg.TableKind, bench, got, want)
			}
		}
	}
}

// TestSweepSpecsShadowMatchesSolo checks the capacity-attribution path: a
// batched spec with an unbounded shadow twin must report the same miss and
// capacity rates as the same spec swept alone.
func TestSweepSpecsShadowMatchesSolo(t *testing.T) {
	ctx := tinyContext(t)
	cfg := boundedConfig(2, 0, "fullassoc", 64)
	shadowCfg := cfg
	shadowCfg.TableKind = "unbounded"
	shadowCfg.Entries = 0
	spec := SweepSpec{
		Mk:       func() (core.Predictor, error) { return core.NewTwoLevel(cfg) },
		MkShadow: func() (core.Predictor, error) { return core.NewTwoLevel(shadowCfg) },
	}
	// Two copies of the same spec in one batch: both lanes must agree with
	// each other (no cross-lane contamination) and with a solo run.
	batch, err := ctx.SweepSpecs([]SweepSpec{spec, spec}, false)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := ctx.SweepSpecs([]SweepSpec{spec}, false)
	if err != nil {
		t.Fatal(err)
	}
	key := func(r sim.Result) [4]int {
		return [4]int{r.Executed, r.Misses, r.NoPrediction, r.CapacityMisses}
	}
	for _, bench := range []string{"idl", "gcc"} {
		a, b, s := batch[0][bench], batch[1][bench], solo[0][bench]
		if key(a) != key(b) {
			t.Errorf("%s: lane results differ: %+v vs %+v", bench, a, b)
		}
		if key(a) != key(s) {
			t.Errorf("%s: batched %+v != solo %+v", bench, a, s)
		}
		if a.CapacityRate() < 0 || a.CapacityRate() > a.MissRate() {
			t.Errorf("%s: capacity rate %v outside [0, miss %v]",
				bench, a.CapacityRate(), a.MissRate())
		}
	}
}

// TestSweepSpecsRejectsInlineShadow pins the API contract: shadows must come
// from MkShadow so each lane × benchmark cell gets a private instance.
func TestSweepSpecsRejectsInlineShadow(t *testing.T) {
	ctx := tinyContext(t)
	sh, err := core.NewTwoLevel(core.Config{TableKind: "unbounded"})
	if err != nil {
		t.Fatal(err)
	}
	spec := SweepSpec{
		Mk:   func() (core.Predictor, error) { return core.NewTwoLevel(exactConfig(1)) },
		Opts: sim.Options{Shadow: sh},
	}
	if _, err := ctx.SweepSpecs([]SweepSpec{spec}, false); err == nil {
		t.Fatal("inline Opts.Shadow accepted")
	}
}

// fig17Specs is Figure 17's lane matrix at one component size: 78 dual-path
// hybrids over 13 components and 13 diagonal two-level lanes.
func fig17Specs(compSize int) []SweepSpec {
	var specs []SweepSpec
	for p1 := 0; p1 <= 12; p1++ {
		for p2 := 0; p2 <= p1; p2++ {
			if p1 == p2 {
				specs = append(specs, twoLevelSpec(boundedConfig(p1, 0, "assoc4", 2*compSize)))
			} else {
				specs = append(specs, hybridSpec(p1, p2, "assoc4", compSize))
			}
		}
	}
	return specs
}

// stepped counts the distinct predictors a chunk steps per branch.
func stepped(specs []SweepSpec, chunk []int) int {
	keys := map[shareKey]bool{}
	n := 0
	for _, i := range chunk {
		ks := specs[i].shareKeys()
		if ks == nil {
			n++
		}
		for _, k := range ks {
			if !keys[k] {
				keys[k] = true
				n++
			}
		}
	}
	return n
}

// TestPlanChunks: chunks hold at most sweepChunk stepped predictors, every
// spec lands in exactly one chunk, Figure 17's matrix steps each of its 26
// distinct predictors once, and all-private grids keep the old chunking of
// consecutive sweepChunk lanes.
func TestPlanChunks(t *testing.T) {
	check := func(name string, specs []SweepSpec, wantStepped int) [][]int {
		t.Helper()
		plan := planChunks(specs)
		seen := make([]int, len(specs))
		total := 0
		for _, c := range plan {
			n := stepped(specs, c)
			if n > sweepChunk {
				t.Errorf("%s: chunk %v steps %d > %d predictors", name, c, n, sweepChunk)
			}
			total += n
			for _, i := range c {
				seen[i]++
			}
		}
		for i, n := range seen {
			if n != 1 {
				t.Errorf("%s: spec %d placed %d times", name, i, n)
			}
		}
		if total != wantStepped {
			t.Errorf("%s: %d stepped predictors per branch, want %d", name, total, wantStepped)
		}
		return plan
	}
	check("fig17", fig17Specs(2048), 26)

	var private []SweepSpec
	for _, cfg := range sweepGrid() {
		private = append(private, twoLevelSpec(cfg))
	}
	private = append(private, private...) // 36 lanes
	plan := check("private", private, len(private))
	for c, lanes := range plan {
		for j, i := range lanes {
			if i != c*sweepChunk+j {
				t.Fatalf("private grid: chunk %d holds %v, want consecutive lanes", c, lanes)
			}
		}
	}

	// Lanes that may not share keep private components: a shadowed lane,
	// an event lane, and a lane whose Warmup differs count on their own.
	h := hybridSpec(1, 3, "assoc4", 256)
	shadowed, warm := h, h
	shadowed.MkShadow = func() (core.Predictor, error) { return core.NewTwoLevel(core.Config{TableKind: "unbounded"}) }
	warm.Opts.Warmup = 10
	check("mixed", []SweepSpec{h, h, shadowed, warm, warm}, 2+1+2)

	// A group too large for one chunk is split.
	var wide []SweepSpec
	for p := 0; p < 20; p++ {
		wide = append(wide, hybridSpec(p, p+1, "assoc2", 64))
	}
	check("wide", wide, 21+1) // the split repeats one boundary component
}

// TestSweepSharedHybridsMatchPrivate is the golden guarantee for component
// sharing: a grid of hybrid specs, swept with shared components and reused
// across benchmarks through the lane cache, gives exactly the Results
// (telemetry table snapshots included) of private NewDualPath lanes, for
// lanes that share and for lanes that keep private components.
func TestSweepSharedHybridsMatchPrivate(t *testing.T) {
	telemetry.Enable(nil)
	defer telemetry.Disable()
	ctx := tinyContext(t)
	shared := fig17Specs(64)
	private := make([]SweepSpec, len(shared))
	for i, s := range shared {
		if s.Comps == nil {
			private[i] = s
			continue
		}
		comps := s.Comps
		private[i] = SweepSpec{Mk: func() (core.Predictor, error) { return core.NewTwoLevelHybrid(comps...) }}
	}
	shadow := func() (core.Predictor, error) {
		return core.NewTwoLevel(core.Config{PathLength: 3, Precision: core.AutoPrecision, TableKind: "unbounded"})
	}
	for _, opts := range []sim.Options{{Warmup: 20}, {Sites: true}} {
		s := hybridSpec(1, 3, "assoc4", 64)
		s.Opts = opts
		shared = append(shared, s)
		private = append(private, SweepSpec{Mk: func() (core.Predictor, error) { return core.NewDualPath(1, 3, "assoc4", 64) }, Opts: opts})
	}
	s := hybridSpec(1, 3, "assoc4", 64)
	s.MkShadow = shadow
	shared = append(shared, s)
	private = append(private, SweepSpec{Mk: func() (core.Predictor, error) { return core.NewDualPath(1, 3, "assoc4", 64) }, MkShadow: shadow})

	got, err := ctx.SweepSpecs(shared, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ctx.SweepSpecs(private, false)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ctx.TakeFailures()); n != 0 {
		t.Fatalf("%d degraded cells", n)
	}
	for i := range shared {
		if len(got[i]) != len(ctx.Suite) {
			t.Fatalf("spec %d: %d benchmarks, want %d", i, len(got[i]), len(ctx.Suite))
		}
		for bench, w := range want[i] {
			if w.Tables == nil {
				t.Fatalf("spec %d: no Tables with telemetry on", i)
			}
			if g := got[i][bench]; !reflect.DeepEqual(g, w) {
				t.Errorf("spec %d %s: shared %+v != private %+v", i, bench, g, w)
			}
		}
	}
}
