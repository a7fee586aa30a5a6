// Package experiment reproduces every table and figure of the paper's
// evaluation. Each experiment is a registered runner that simulates the
// relevant predictor configurations over the 17-benchmark suite and returns
// paper-style result tables; cmd/ibpsweep is the front end.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/sim"
	"github.com/oocsb/ibp/internal/stats"
	"github.com/oocsb/ibp/internal/telemetry"
	"github.com/oocsb/ibp/internal/trace"
	"github.com/oocsb/ibp/internal/workload"
)

// Context carries the shared parameters of an experiment run and caches the
// generated benchmark traces (the expensive part) across experiments.
type Context struct {
	// TraceLen is the number of indirect branches per benchmark; the
	// paper uses up to 6M, the default here is workload.DefaultBranches.
	TraceLen int
	// Suite is the benchmark set (default: the paper's 17 benchmarks).
	Suite []workload.Config

	ctx context.Context // cancellation for the whole run; never nil

	prog progress // cumulative sweep progress (atomics; see Progress)

	mu       sync.Mutex
	traces   map[string]*traceEntry // single-flight indirect traces + summaries
	fulls    map[string]*traceEntry // single-flight full traces
	appx     appendix               // memoized Table A-1 computation
	failures []CellError            // degraded per-cell failures since the last Take
}

// NewContext returns a context over the full suite. traceLen <= 0 selects
// the default length.
func NewContext(traceLen int) *Context {
	if traceLen <= 0 {
		traceLen = workload.DefaultBranches
	}
	return &Context{
		TraceLen: traceLen,
		Suite:    workload.Suite(),
		ctx:      context.Background(),
		traces:   make(map[string]*traceEntry),
		fulls:    make(map[string]*traceEntry),
	}
}

// WithContext attaches a cancellation context to the run and returns c.
// Sweeps and cancellation-aware experiments stop early (returning ctx's
// error) once it is done.
func (c *Context) WithContext(ctx context.Context) *Context {
	if ctx == nil {
		ctx = context.Background()
	}
	c.ctx = ctx
	return c
}

// Ctx returns the run's cancellation context (never nil).
func (c *Context) Ctx() context.Context { return c.ctx }

// Err returns the cancellation error once the run's context is done, nil
// before that. Experiments with hand-rolled benchmark loops call this at
// iteration boundaries.
func (c *Context) Err() error { return c.ctx.Err() }

// CellError records one benchmark cell that failed after retries and was
// degraded to an error row instead of aborting the sweep.
type CellError struct {
	// Bench is the benchmark (suite cell) that failed.
	Bench string
	// Err is the failure, with panics converted to errors.
	Err error
}

func (e CellError) Error() string { return fmt.Sprintf("%s: %v", e.Bench, e.Err) }

// recordFailure remembers a degraded cell.
func (c *Context) recordFailure(bench string, err error) {
	c.prog.cellsFailed.Add(1)
	telemetry.Default().Counter("sweep_cells_failed_total").Inc()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures = append(c.failures, CellError{Bench: bench, Err: err})
}

// TakeFailures returns the degraded cell failures accumulated since the
// previous call and clears the list; the front end reports them alongside
// the (partial) result tables. The order is deterministic — sorted by
// benchmark, then by error text — regardless of the worker interleaving
// that recorded them, so error rows, journal entries, and logs are stable
// across runs.
func (c *Context) TakeFailures() []CellError {
	c.mu.Lock()
	out := c.failures
	c.failures = nil
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bench != out[j].Bench {
			return out[i].Bench < out[j].Bench
		}
		return out[i].Err.Error() < out[j].Err.Error()
	})
	return out
}

// traceEntry is one single-flight cache slot: the sync.Once guarantees a
// benchmark's trace is generated exactly once even when many sweep cells
// request it concurrently (the cache previously dropped its lock around the
// expensive generation, so concurrent cells generated duplicate traces). A
// panic during generation is captured and re-raised in every caller, so each
// requesting cell degrades individually through its own panic isolation
// instead of the once poisoning silently.
type traceEntry struct {
	once     sync.Once
	tr       trace.Trace
	sum      trace.Summary
	panicVal any
}

// entry returns (creating on demand) the cache slot for a benchmark in m.
func (c *Context) entry(m map[string]*traceEntry, name string) *traceEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := m[name]
	if e == nil {
		e = &traceEntry{}
		m[name] = e
	}
	return e
}

// traceDone accounts one trace-cache access: generated distinguishes the
// single caller whose Do closure actually ran from the callers served by the
// cache, and a captured generation panic is counted before being re-raised.
func traceDone(e *traceEntry, generated bool) {
	r := telemetry.Default()
	if generated {
		r.Counter("trace_cache_misses_total").Inc()
	} else {
		r.Counter("trace_cache_hits_total").Inc()
	}
	if e.panicVal != nil {
		r.Counter("trace_gen_panics_total").Inc()
		panic(e.panicVal)
	}
}

// Trace returns the cached indirect-branch-only trace for a benchmark
// (sufficient for every predictor except conditional-history consumers; use
// FullTrace for those). Generation is single-flight across goroutines.
func (c *Context) Trace(cfg workload.Config) trace.Trace {
	e := c.entry(c.traces, cfg.Name)
	generated := false
	e.once.Do(func() {
		generated = true
		defer func() { e.panicVal = recover() }()
		full := cfg.MustGenerate(c.TraceLen)
		e.sum = trace.Summarize(full)
		e.tr = full.Indirect()
	})
	traceDone(e, generated)
	return e.tr
}

// FullTrace returns the cached complete trace (conditionals, returns) for a
// benchmark, generating it single-flight on first use.
func (c *Context) FullTrace(cfg workload.Config) trace.Trace {
	e := c.entry(c.fulls, cfg.Name)
	generated := false
	e.once.Do(func() {
		generated = true
		defer func() { e.panicVal = recover() }()
		e.tr = cfg.MustGenerate(c.TraceLen)
	})
	traceDone(e, generated)
	return e.tr
}

// Summary returns the Tables 1–2 statistics of the benchmark's full trace.
func (c *Context) Summary(cfg workload.Config) trace.Summary {
	c.Trace(cfg) // ensure generated
	return c.entry(c.traces, cfg.Name).sum
}

// transientError marks a failure worth retrying (flaky I/O, resource
// pressure) as opposed to a deterministic one (bad configuration, panic).
type transientError struct{ err error }

func (e *transientError) Error() string { return "transient: " + e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps err so forEach's workers retry the cell with capped
// backoff before giving up. A nil err returns nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// Retry policy for transient cell failures.
const (
	maxCellAttempts = 3
	baseBackoff     = 10 * time.Millisecond
	maxBackoff      = 250 * time.Millisecond
)

// protect runs fn(i), converting a panic into an error carrying the stack,
// so one misbehaving cell cannot take down the whole sweep process.
func protect(i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cell %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return fn(i)
}

// runCell executes one cell with panic isolation, retrying failures marked
// Transient with capped exponential backoff. Cancellation cuts the backoff
// short.
func runCell(ctx context.Context, i int, fn func(i int) error) error {
	var err error
	for attempt := 1; ; attempt++ {
		err = protect(i, fn)
		if err == nil || !IsTransient(err) || attempt >= maxCellAttempts {
			return err
		}
		telemetry.Default().Counter("sweep_cells_retried_total").Inc()
		delay := baseBackoff << (attempt - 1)
		if delay > maxBackoff {
			delay = maxBackoff
		}
		timer := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		case <-timer.C:
		}
	}
}

// forEach runs fn(i) for every i in [0, n) on up to GOMAXPROCS goroutines
// and returns the first error. Panics in fn are recovered into errors,
// errors marked Transient are retried with capped backoff, and dispatch
// stops at the first recorded failure (or context cancellation) — cells
// already in flight finish, no new ones start.
func forEach(ctx context.Context, n int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var (
		wg       sync.WaitGroup
		next     = make(chan int)
		done     = make(chan struct{})
		stopOnce sync.Once
		mu       sync.Mutex
		firstErr error
	)
	fail := func(e error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = e
		}
		mu.Unlock()
		stopOnce.Do(func() { close(done) })
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if e := runCell(ctx, i, fn); e != nil {
					fail(e)
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		// Non-blocking check first: a recorded failure must win over an
		// available worker, otherwise the select below could keep picking
		// the send case at random after the failure.
		select {
		case <-done:
			break dispatch
		case <-ctx.Done():
			fail(ctx.Err())
			break dispatch
		default:
		}
		select {
		case <-done:
			break dispatch
		case <-ctx.Done():
			fail(ctx.Err())
			break dispatch
		case next <- i:
		}
	}
	close(next)
	wg.Wait()
	return firstErr
}

// SweepSpec describes one predictor lane of a batched sweep.
type SweepSpec struct {
	// Mk constructs the lane's predictor; it must return a fresh instance
	// per call. Required unless Comps is set.
	Mk func() (core.Predictor, error)
	// Comps, when set, makes the lane a core.NewTwoLevelHybrid over these
	// component configurations instead of Mk's predictor. Lanes of one
	// batched pass whose Comps name the same (defaulted) configuration
	// share one component, which the engine steps once per branch (see
	// sim.RunBatchEach), provided they agree on Warmup and FlushEvery and
	// have neither a shadow nor an event sink; other lanes get private
	// components.
	Comps []core.Config
	// MkShadow, when non-nil, constructs the lane's unbounded shadow twin
	// for capacity-miss attribution. A factory rather than an instance:
	// every benchmark cell needs its own shadow, and a shadow must never
	// be shared between lanes.
	MkShadow func() (core.Predictor, error)
	// Opts are the lane's simulation options. Opts.Shadow must be nil
	// (shadows come from MkShadow).
	Opts sim.Options
}

// shareKey identifies a component that lanes of one pass may share.
type shareKey struct {
	cfg           core.Config
	warmup, flush int
}

// shareKeys returns the keys of the lane's components when it may share
// them, or nil when the lane steps its predictor privately.
func (s SweepSpec) shareKeys() []shareKey {
	if len(s.Comps) == 0 || s.MkShadow != nil || s.Opts.Events != nil {
		return nil
	}
	keys := make([]shareKey, len(s.Comps))
	for i, cfg := range s.Comps {
		keys[i] = shareKey{cfg.Defaults(), s.Opts.Warmup, s.Opts.FlushEvery}
	}
	return keys
}

// sweepChunk is how many distinct stepped predictors share one batched
// trace pass: a private lane counts one, a component shared by several
// lanes counts once. Each sweep cell is (benchmark × chunk): small enough to
// keep cell failures contained and memory bounded, large enough to amortize
// the per-pass trace walk across many configurations.
const sweepChunk = 16

// planChunks assigns the specs to chunks, returning each chunk's spec
// indices. Lanes linked by shared components form a group that stays in one
// chunk when it fits, so each component is stepped once per pass; groups
// (a private lane is a group of one) are placed first-fit in spec order, and
// a group too large for one chunk is split in spec order.
func planChunks(specs []SweepSpec) [][]int {
	// Union lanes that share a component key.
	parent := make([]int, len(specs))
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	keys := make([][]shareKey, len(specs))
	owner := make(map[shareKey]int)
	for i, s := range specs {
		keys[i] = s.shareKeys()
		for _, k := range keys[i] {
			if j, ok := owner[k]; ok {
				parent[find(i)] = find(j)
			} else {
				owner[k] = i
			}
		}
	}
	var groups [][]int
	groupOf := make(map[int]int)
	for i := range specs {
		r := find(i)
		g, ok := groupOf[r]
		if !ok {
			g = len(groups)
			groupOf[r] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}

	type chunk struct {
		lanes []int
		keys  map[shareKey]bool
		cost  int
	}
	var chunks []*chunk
	// cost is what lane i adds to c: its components not yet in c, or one
	// for a private lane.
	cost := func(c *chunk, i int) int {
		if keys[i] == nil {
			return 1
		}
		n := 0
		seen := make(map[shareKey]bool, len(keys[i]))
		for _, k := range keys[i] {
			if !c.keys[k] && !seen[k] {
				seen[k] = true
				n++
			}
		}
		return n
	}
	add := func(c *chunk, i int) {
		c.cost += cost(c, i)
		for _, k := range keys[i] {
			c.keys[k] = true
		}
		c.lanes = append(c.lanes, i)
	}
	open := func() *chunk {
		c := &chunk{keys: make(map[shareKey]bool)}
		chunks = append(chunks, c)
		return c
	}
	for _, g := range groups {
		need := 0
		probe := &chunk{keys: make(map[shareKey]bool)}
		for _, i := range g {
			need += cost(probe, i)
			add(probe, i)
		}
		if need > sweepChunk {
			c := open()
			for _, i := range g {
				if len(c.lanes) > 0 && c.cost+cost(c, i) > sweepChunk {
					c = open()
				}
				add(c, i)
			}
			continue
		}
		var dst *chunk
		for _, c := range chunks {
			if c.cost+need <= sweepChunk {
				dst = c
				break
			}
		}
		if dst == nil {
			dst = open()
		}
		for _, i := range g {
			add(dst, i)
		}
	}
	out := make([][]int, len(chunks))
	for i, c := range chunks {
		out[i] = c.lanes
	}
	return out
}

// laneCache keeps one worker's predictors alive between cells of the same
// chunk: consecutive cells differ only in the benchmark, so resetting the
// predictors (bit-identical to fresh construction — tables reset by
// generation bump, histories clear) avoids reallocating hundreds of
// megabytes of tables across a grid sweep. The cache is dropped whenever a
// lane misbehaves, since a panic can leave a predictor mid-mutation where
// Reset's invariants no longer hold.
type laneCache struct {
	chunk      int
	valid      bool
	resettable bool
	ps         []core.Predictor
	shadows    []core.Predictor
	// stepped is every distinct predictor the chunk steps: each shared
	// component once, each other lane's predictor and each shadow. Reset
	// goes through it, so a shared component is reset once.
	stepped []core.Predictor
}

// lanes returns predictors (and per-lane shadows) for the chunk's specs,
// reusing the cached set via Reset when possible.
func (lc *laneCache) lanes(chunk int, specs []SweepSpec, sm sweepMetrics) (ps, shadows []core.Predictor, err error) {
	if lc.valid && lc.resettable && lc.chunk == chunk {
		sm.laneHits.Inc()
		for _, p := range lc.stepped {
			p.(core.Resetter).Reset()
		}
		return lc.ps, lc.shadows, nil
	}
	sm.laneMiss.Inc()
	lc.valid = false
	ps = make([]core.Predictor, len(specs))
	shadows = make([]core.Predictor, len(specs))
	var stepped []core.Predictor
	shared := make(map[shareKey]*core.TwoLevel)
	for i, s := range specs {
		if s.Opts.Shadow != nil {
			return nil, nil, errors.New("experiment: SweepSpec.Opts.Shadow must be nil; use MkShadow")
		}
		if keys := s.shareKeys(); keys != nil {
			comps := make([]core.Component, len(keys))
			for j, k := range keys {
				c := shared[k]
				if c == nil {
					if c, err = core.NewTwoLevel(k.cfg); err != nil {
						return nil, nil, err
					}
					shared[k] = c
					stepped = append(stepped, c)
				}
				comps[j] = c
			}
			if ps[i], err = core.NewHybrid(comps...); err != nil {
				return nil, nil, err
			}
		} else {
			if len(s.Comps) > 0 {
				ps[i], err = core.NewTwoLevelHybrid(s.Comps...)
			} else {
				ps[i], err = s.Mk()
			}
			if err != nil {
				return nil, nil, err
			}
			stepped = append(stepped, ps[i])
		}
		if s.MkShadow != nil {
			if shadows[i], err = s.MkShadow(); err != nil {
				return nil, nil, err
			}
			stepped = append(stepped, shadows[i])
		}
	}
	resettable := true
	for _, p := range stepped {
		if _, ok := p.(core.Resetter); !ok {
			resettable = false
		}
	}
	lc.chunk, lc.ps, lc.shadows, lc.stepped = chunk, ps, shadows, stepped
	lc.resettable, lc.valid = resettable, true
	return ps, shadows, nil
}

// SweepSpecs runs every spec over every benchmark and returns
// res[spec][benchmark]. The specs are split into chunks of at most
// sweepChunk stepped predictors (see planChunks); each (benchmark × chunk)
// cell is one panic-isolated unit of the worker pool, inside which
// sim.RunBatchEach drives the chunk's predictors over the benchmark's trace
// in a single pass. full selects complete traces
// (conditional records included) instead of indirect-only ones.
//
// Failure handling follows Sweep's contract: predictor construction errors
// abort the sweep; a failing cell (trace generation, a panicking lane)
// degrades to recorded CellErrors while the other cells and lanes still
// produce results; cancellation aborts.
func (c *Context) SweepSpecs(specs []SweepSpec, full bool) ([]map[string]sim.Result, error) {
	out := make([]map[string]sim.Result, len(specs))
	for i := range out {
		out[i] = make(map[string]sim.Result, len(c.Suite))
	}
	if len(specs) == 0 {
		return out, nil
	}
	nb := len(c.Suite)
	plan := planChunks(specs)
	chunks := len(plan)
	sm := newSweepMetrics(telemetry.Default())
	c.prog.begin(nb*chunks, time.Now())
	sm.queued.Add(uint64(nb * chunks))
	var mu sync.Mutex
	pool := sync.Pool{New: func() any { return &laneCache{} }}
	// Cells are ordered chunk-major so a worker's consecutive cells share a
	// chunk and its laneCache keeps hitting.
	err := forEach(c.ctx, nb*chunks, func(ci int) error {
		chunk, bench := ci/nb, c.Suite[ci%nb]
		idx := plan[chunk]
		sub := make([]SweepSpec, len(idx))
		for i, j := range idx {
			sub[i] = specs[j]
		}
		cache := pool.Get().(*laneCache)
		defer pool.Put(cache)
		sm.running.Add(1)
		cellStart := time.Now()
		defer func() {
			sm.running.Add(-1)
			sm.cellTime.Observe(time.Since(cellStart))
			sm.done.Inc()
			c.prog.cellsDone.Add(1)
		}()
		// Construction errors are deterministic configuration mistakes:
		// every cell would fail identically, so they abort the sweep
		// rather than degrade.
		ps, shadows, err := cache.lanes(chunk, sub, sm)
		if err != nil {
			return fmt.Errorf("%s: %w", bench.Name, err)
		}
		// The per-cell work (trace generation + simulation) is isolated:
		// a panic or error here degrades to recorded error rows so the
		// other cells still produce results. Within the cell, sim's own
		// lane isolation keeps one misbehaving configuration from taking
		// down the chunk. Cancellation stays fatal.
		cellErr := protect(ci, func(int) error {
			var tr trace.Trace
			if full {
				tr = c.FullTrace(bench)
			} else {
				tr = c.Trace(bench)
			}
			lopts := make([]sim.Options, len(sub))
			for i, s := range sub {
				lopts[i] = s.Opts
				lopts[i].Shadow = shadows[i]
			}
			rs, err := sim.RunBatchEach(c.ctx, ps, tr, lopts)
			var be *sim.BatchError
			if err != nil && (!errors.As(err, &be) || c.ctx.Err() != nil) {
				return err
			}
			dead := map[int]bool{}
			if be != nil {
				cache.valid = false // panicked lanes may violate Reset invariants
				for _, le := range be.Lanes {
					dead[le.Lane] = true
					c.recordFailure(bench.Name, fmt.Errorf("config %d: %w", idx[le.Lane], le.Err))
				}
			}
			var executed, missed uint64
			mu.Lock()
			for i, r := range rs {
				if !dead[i] {
					out[idx[i]][bench.Name] = r
					executed += uint64(r.Executed)
					missed += uint64(r.Misses)
				}
			}
			mu.Unlock()
			c.prog.executed.Add(executed)
			c.prog.misses.Add(missed)
			return nil
		})
		if cellErr != nil {
			cache.valid = false
			if errors.Is(cellErr, context.Canceled) || errors.Is(cellErr, context.DeadlineExceeded) {
				return cellErr
			}
			c.recordFailure(bench.Name, cellErr)
		}
		return nil
	})
	return out, err
}

// rateMaps reduces SweepSpecs results to per-benchmark misprediction rates.
func rateMaps(res []map[string]sim.Result) []map[string]float64 {
	out := make([]map[string]float64, len(res))
	for i, m := range res {
		out[i] = make(map[string]float64, len(m))
		for bench, r := range m {
			out[i][bench] = r.MissRate()
		}
	}
	return out
}

// SweepBatch simulates one predictor per (configuration, benchmark) pair —
// mks[i] constructing fresh predictors for configuration i — in batched
// single-pass trace walks, and returns per-benchmark misprediction rates in
// percent for each configuration. It is the grid form of Sweep.
func (c *Context) SweepBatch(mks []func() (core.Predictor, error)) ([]map[string]float64, error) {
	specs := make([]SweepSpec, len(mks))
	for i, mk := range mks {
		specs[i] = SweepSpec{Mk: mk}
	}
	return c.sweepRates(specs)
}

// sweepRates is SweepBatch over lane specs.
func (c *Context) sweepRates(specs []SweepSpec) ([]map[string]float64, error) {
	res, err := c.SweepSpecs(specs, false)
	return rateMaps(res), err
}

// SweepBatchFull is SweepBatch over complete traces (conditional records
// included), for predictors implementing core.CondObserver.
func (c *Context) SweepBatchFull(mks []func() (core.Predictor, error)) ([]map[string]float64, error) {
	specs := make([]SweepSpec, len(mks))
	for i, mk := range mks {
		specs[i] = SweepSpec{Mk: mk}
	}
	res, err := c.SweepSpecs(specs, true)
	return rateMaps(res), err
}

// twoLevelSpec is a lane running a two-level predictor.
func twoLevelSpec(cfg core.Config) SweepSpec {
	return SweepSpec{Mk: func() (core.Predictor, error) { return core.NewTwoLevel(cfg) }}
}

func configSpecs(cfgs []core.Config) []SweepSpec {
	specs := make([]SweepSpec, len(cfgs))
	for i, cfg := range cfgs {
		specs[i] = twoLevelSpec(cfg)
	}
	return specs
}

// SweepConfigs is SweepBatch over two-level predictor configurations.
func (c *Context) SweepConfigs(cfgs []core.Config) ([]map[string]float64, error) {
	return c.sweepRates(configSpecs(cfgs))
}

// SweepConfigsFull is SweepConfigs over complete traces (conditional records
// included).
func (c *Context) SweepConfigsFull(cfgs []core.Config) ([]map[string]float64, error) {
	res, err := c.SweepSpecs(configSpecs(cfgs), true)
	return rateMaps(res), err
}

// Sweep simulates one predictor per benchmark (constructed by mk, which must
// return a fresh predictor per call) and returns per-benchmark misprediction
// rates in percent.
func (c *Context) Sweep(mk func() (core.Predictor, error)) (map[string]float64, error) {
	rates, err := c.SweepBatch([]func() (core.Predictor, error){mk})
	return rates[0], err
}

// SweepFull is Sweep over complete traces (conditional records included),
// for predictors implementing core.CondObserver.
func (c *Context) SweepFull(mk func() (core.Predictor, error)) (map[string]float64, error) {
	rates, err := c.SweepBatchFull([]func() (core.Predictor, error){mk})
	return rates[0], err
}

// GroupRow extends per-benchmark rates with the Table 3 group averages and
// returns the value for the requested key ("AVG" etc. or a benchmark name).
func GroupRow(values map[string]float64) map[string]float64 {
	return stats.WithGroups(values)
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the short name used by cmd/ibpsweep and bench targets.
	ID string
	// Artifact names the paper table/figure, e.g. "Figure 9".
	Artifact string
	// Desc is a one-line description.
	Desc string
	// Run produces the experiment's result tables.
	Run func(ctx *Context) ([]*stats.Table, error)
}

var (
	regMu    sync.Mutex
	registry []Experiment
)

// register adds an experiment; called from init functions of this package.
func register(e Experiment) {
	regMu.Lock()
	defer regMu.Unlock()
	registry = append(registry, e)
}

// All returns the registered experiments sorted by id.
func All() []Experiment {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiment: unknown id %q", id)
}

// groupRows lists the group labels shown as rows in the unconstrained
// figures, AVG first as the headline.
var groupRows = []string{
	stats.GroupAVG, stats.GroupOO, stats.GroupC,
	stats.Group100, stats.Group200, stats.GroupInfreq,
}

// setGroups writes a column of group averages into a table.
func setGroups(t *stats.Table, col string, perBench map[string]float64) {
	ext := stats.WithGroups(perBench)
	for _, g := range groupRows {
		if v, ok := ext[g]; ok {
			t.Set(g, col, v)
		}
	}
}
