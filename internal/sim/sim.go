// Package sim drives predictors over branch traces and accounts for
// mispredictions the way the paper does: every dynamic indirect branch is
// predicted then resolved; a missing prediction counts as a misprediction;
// returns are excluded (they belong to the return address stack); and an
// optional unbounded shadow twin attributes misses to capacity/conflict
// effects (§5.1).
//
// The engine is batched: RunBatchEach drives any number of predictors
// ("lanes") over one trace in a single pass, sharing the record decode and
// cancellation checks and isolating each lane's panics, so a sweep over a
// configuration grid pays for the trace once per benchmark instead of once
// per configuration. Run/RunContext are the single-lane form, and Lane
// exports one lane's record-by-record kernel to callers that receive their
// records incrementally, such as a streaming service.
package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime/debug"
	"strings"
	"time"

	"github.com/oocsb/ibp/internal/core"
	"github.com/oocsb/ibp/internal/ptrace"
	"github.com/oocsb/ibp/internal/table"
	"github.com/oocsb/ibp/internal/telemetry"
	"github.com/oocsb/ibp/internal/trace"
)

// Options controls a simulation run.
type Options struct {
	// Warmup is the number of leading indirect branches excluded from the
	// accounting (they still train the predictor). The paper skips
	// initialization phases of two benchmarks the same way (§2).
	Warmup int
	// Shadow, when non-nil, is an unbounded predictor with the same key
	// function as the subject; a subject miss that the shadow predicts
	// correctly is counted as a capacity/conflict miss. A Shadow instance
	// belongs to exactly one lane: it trains on every branch of that
	// lane's run, so sharing one across RunBatch lanes would corrupt it
	// (RunBatch rejects that; RunBatchEach takes per-lane Options).
	Shadow core.Predictor
	// Sites enables per-site accounting (used for benchmark analysis).
	Sites bool
	// FlushEvery clears all predictor state every N indirect branches,
	// modelling context switches that lose the predictor's contents
	// (cf. [ECP96]). 0 disables flushing. Requires a predictor
	// implementing core.Resetter; others are left untouched.
	FlushEvery int
	// Events, when non-nil, receives one ptrace.Event per dynamic indirect
	// branch (warmup included, sampling and ring bounds applied by the
	// sink). Predictors implementing core.Attributor have attribution
	// recording switched on for the run, enriching events with the history
	// pattern, table hit/evict detail, and the hybrid component chosen;
	// other predictors produce events with sim-visible fields only. Like a
	// Shadow, a sink belongs to exactly one lane — it is not safe for
	// concurrent use, so sharing one across RunBatch lanes is rejected.
	Events *ptrace.EventSink
}

// SiteStats is the per-branch-site accounting collected when Options.Sites
// is set.
type SiteStats struct {
	Executed int
	Misses   int
}

// Result summarizes one simulation.
type Result struct {
	// Executed is the number of indirect branches counted (after warmup).
	Executed int
	// Misses is the number of mispredictions (wrong target or no
	// prediction).
	Misses int
	// NoPrediction is the subset of Misses where the predictor produced
	// no target at all.
	NoPrediction int
	// CapacityMisses is the subset of Misses the unbounded shadow twin
	// predicted correctly (only populated when a shadow was supplied).
	CapacityMisses int
	// Warmup is the number of indirect branches excluded from accounting.
	Warmup int
	// PerSite holds per-site counts when requested.
	PerSite map[uint32]*SiteStats
	// Tables summarizes the predictor's target tables over this run
	// (occupancy at completion; insert/eviction/reset deltas attributed to
	// this run even on a reused predictor instance). Populated only when
	// telemetry is enabled (telemetry.Default() non-nil) and the predictor
	// implements core.TableStatser; nil otherwise.
	Tables []table.Stats
}

// MissRate returns the misprediction rate in percent.
func (r Result) MissRate() float64 {
	if r.Executed == 0 {
		return 0
	}
	return 100 * float64(r.Misses) / float64(r.Executed)
}

// CapacityRate returns the capacity/conflict misprediction rate in percent.
func (r Result) CapacityRate() float64 {
	if r.Executed == 0 {
		return 0
	}
	return 100 * float64(r.CapacityMisses) / float64(r.Executed)
}

// String renders the result as a one-line report.
func (r Result) String() string {
	s := fmt.Sprintf("%.2f%% misses (%d/%d, %d no-prediction)",
		r.MissRate(), r.Misses, r.Executed, r.NoPrediction)
	if r.CapacityMisses > 0 {
		s += fmt.Sprintf(", %.2f%% capacity", r.CapacityRate())
	}
	return s
}

// PanicError wraps a panic recovered from one predictor lane of a batched
// run. The lane is dead from that point on (its partial Result must not be
// used); the other lanes are unaffected.
type PanicError struct {
	// Val is the original panic value.
	Val any
	// Stack is the stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("predictor panicked: %v\n%s", e.Val, e.Stack)
}

// LaneError attributes a failure to one lane of a batched run.
type LaneError struct {
	// Lane indexes the predictor in the RunBatch/RunBatchEach call.
	Lane int
	// Err is the lane's failure (a *PanicError for recovered panics).
	Err error
}

func (e LaneError) Error() string { return fmt.Sprintf("lane %d: %v", e.Lane, e.Err) }

// Unwrap exposes the underlying failure to errors.Is/As.
func (e LaneError) Unwrap() error { return e.Err }

// BatchError aggregates the per-lane failures of a batched run. Lanes not
// listed completed normally and their Results are valid: a misbehaving
// predictor degrades its own lane, not the whole pass.
type BatchError struct {
	Lanes []LaneError
}

func (e *BatchError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: %d of batch lanes failed", len(e.Lanes))
	for _, le := range e.Lanes {
		fmt.Fprintf(&b, "; %v", le)
	}
	return b.String()
}

// Unwrap exposes the lane errors to errors.Is/As.
func (e *BatchError) Unwrap() []error {
	out := make([]error, len(e.Lanes))
	for i, le := range e.Lanes {
		out[i] = le
	}
	return out
}

// runMetrics is the set of hot-loop telemetry handles resolved once per
// batched run. A nil *runMetrics means telemetry is disabled and the engine
// takes the uninstrumented path.
type runMetrics struct {
	records   *telemetry.Counter   // trace records scanned, summed over lanes
	predicts  *telemetry.Counter   // indirect branches predicted (incl. warmup)
	misses    *telemetry.Counter   // mispredictions
	panics    *telemetry.Counter   // lanes killed by a predictor panic
	evictions *telemetry.Counter   // table entries displaced (per-run deltas)
	resets    *telemetry.Counter   // whole-table resets (per-run deltas)
	occupancy *telemetry.Gauge     // last observed end-of-run table occupancy
	block     *telemetry.Histogram // wall time per lane-block
}

// newRunMetrics resolves the handles against r, or returns nil when
// telemetry is disabled.
func newRunMetrics(r *telemetry.Registry) *runMetrics {
	if r == nil {
		return nil
	}
	return &runMetrics{
		records:   r.Counter("sim_records_total"),
		predicts:  r.Counter("sim_predicts_total"),
		misses:    r.Counter("sim_misses_total"),
		panics:    r.Counter("sim_lane_panics_total"),
		evictions: r.Counter("sim_table_evictions_total"),
		resets:    r.Counter("sim_table_resets_total"),
		occupancy: r.Gauge("sim_table_occupancy"),
		block:     r.Histogram("sim_block"),
	}
}

// Outcome is one resolved dynamic indirect branch as the kernel accounted
// it, handed to a lane's observer right after the predictor's Update (so a
// core.Attributor's Attribution describes this branch).
type Outcome struct {
	// Seq is the branch's 1-based dynamic index, warmup included.
	Seq       int
	PC        uint32
	Predicted uint32
	Actual    uint32
	// HasPred is false when the predictor produced no target.
	HasPred bool
	// Miss is a wrong target or no prediction.
	Miss bool
	// Warmup marks a branch excluded from the accounting.
	Warmup bool
}

// lane is the per-predictor state of a batched run.
type lane struct {
	p         core.Predictor
	condObs   core.CondObserver
	resetter  core.Resetter
	statser   core.TableStatser
	shadow    core.Predictor
	shadowObs core.CondObserver
	shadowRst core.Resetter
	sink      *ptrace.EventSink
	attrib    core.Attributor
	// observe, when non-nil, sees every resolved indirect branch: the
	// Options.Events emitter, or a Lane caller's SetObserver callback.
	observe func(Outcome)
	opts    Options
	seen    int
	res     Result
	// err is non-nil once a predictor panic killed the lane.
	err error
	// baseStats is the predictor's table counters at run start, so the
	// per-Result snapshot reports this run's deltas even when the predictor
	// is a reused (Reset) instance. Only captured when telemetry is on.
	baseStats []table.Stats
}

func (l *lane) init(p core.Predictor, opts Options, m *runMetrics) {
	l.p = p
	l.opts = opts
	// Conditional records reach only predictors that read them, so a
	// predictor whose ObserveCond is a no-op costs no call per record.
	if core.ConsumesCond(p) {
		l.condObs = p.(core.CondObserver)
	}
	l.resetter, _ = p.(core.Resetter)
	l.shadow = opts.Shadow
	if l.shadow != nil {
		if core.ConsumesCond(l.shadow) {
			l.shadowObs = l.shadow.(core.CondObserver)
		}
		l.shadowRst, _ = l.shadow.(core.Resetter)
	}
	l.res = Result{Warmup: opts.Warmup}
	if opts.Sites {
		l.res.PerSite = make(map[uint32]*SiteStats)
	}
	if opts.Events != nil {
		l.sink = opts.Events
		if a, ok := p.(core.Attributor); ok {
			a.SetAttribution(true)
			l.attrib = a
		}
		l.observe = l.emit
	}
	if m != nil {
		if l.statser, _ = p.(core.TableStatser); l.statser != nil {
			l.baseStats = l.statser.TableStats()
		}
	}
}

// finishStats attaches the lane's per-run table snapshot to its Result and
// publishes the deltas to the registry. Dead lanes are skipped (their tables
// may be mid-mutation).
func (l *lane) finishStats(m *runMetrics) {
	if m == nil || l.statser == nil || l.err != nil {
		return
	}
	cur := l.statser.TableStats()
	if len(cur) != len(l.baseStats) {
		return // table topology changed under us; don't misattribute
	}
	for i := range cur {
		cur[i] = cur[i].Sub(l.baseStats[i])
		m.evictions.Add(cur[i].Evictions)
		m.resets.Add(cur[i].Resets)
	}
	l.res.Tables = cur
	m.occupancy.Set(table.Merge(cur).Occupancy)
}

// step advances the lane over one block and publishes the block's counter
// deltas: one histogram observation and three atomic adds per 8192-record block,
// so enabled telemetry never touches the per-record path.
func (l *lane) step(block []trace.Record, m *runMetrics) {
	if m == nil {
		l.runBlock(block)
		return
	}
	start := time.Now()
	seen0, miss0 := l.seen, l.res.Misses
	l.runBlock(block)
	m.block.Observe(time.Since(start))
	m.records.Add(uint64(len(block)))
	m.predicts.Add(uint64(l.seen - seen0))
	m.misses.Add(uint64(l.res.Misses - miss0))
	if l.err != nil {
		m.panics.Inc()
	}
}

// runBlock advances the lane over one block of trace records. The hot
// counters live in locals for the duration of the block and are written back
// by the deferred function, which also converts a predictor panic into a
// dead lane carrying a *PanicError — one deferred frame per lane-block
// instead of per record keeps isolation off the per-branch path.
func (l *lane) runBlock(block []trace.Record) {
	seen, res := l.seen, l.res
	defer func() {
		l.seen, l.res = seen, res
		if r := recover(); r != nil {
			l.err = &PanicError{Val: r, Stack: debug.Stack()}
		}
	}()
	for _, r := range block {
		switch {
		case r.Kind == trace.Cond:
			if l.condObs != nil {
				l.condObs.ObserveCond(r.PC, r.Target, r.Target != 0)
			}
			if l.shadowObs != nil {
				l.shadowObs.ObserveCond(r.PC, r.Target, r.Target != 0)
			}
			continue
		case !r.Kind.Indirect():
			continue
		}
		if l.opts.FlushEvery > 0 && seen > 0 && seen%l.opts.FlushEvery == 0 {
			if l.resetter != nil {
				l.resetter.Reset()
			}
			if l.shadowRst != nil {
				l.shadowRst.Reset()
			}
		}
		pred, ok := l.p.Predict(r.PC)
		l.p.Update(r.PC, r.Target)
		var shadowCorrect bool
		if l.shadow != nil {
			st, sok := l.shadow.Predict(r.PC)
			l.shadow.Update(r.PC, r.Target)
			shadowCorrect = sok && st == r.Target
		}
		seen++
		miss := !ok || pred != r.Target
		if l.observe != nil {
			l.observe(Outcome{Seq: seen, PC: r.PC, Predicted: pred, Actual: r.Target,
				HasPred: ok, Miss: miss, Warmup: seen <= l.opts.Warmup})
		}
		if seen <= l.opts.Warmup {
			continue
		}
		res.Executed++
		if miss {
			res.Misses++
			if !ok {
				res.NoPrediction++
			}
			if shadowCorrect {
				res.CapacityMisses++
			}
		}
		if res.PerSite != nil {
			ss := res.PerSite[r.PC]
			if ss == nil {
				ss = &SiteStats{}
				res.PerSite[r.PC] = ss
			}
			ss.Executed++
			if miss {
				ss.Misses++
			}
		}
	}
}

// emit is the Options.Events observer: it offers one per-prediction event
// to the lane's sink, merging the sim-visible outcome with the predictor's
// attribution detail when the predictor records it.
func (l *lane) emit(o Outcome) {
	ev := ptrace.Event{
		Seq:       uint64(o.Seq),
		PC:        o.PC,
		Predicted: o.Predicted,
		Actual:    o.Actual,
		Component: -1,
		HasPred:   o.HasPred,
		Miss:      o.Miss,
		Warmup:    o.Warmup,
		TableHit:  o.HasPred,
	}
	if l.attrib != nil {
		a := l.attrib.Attribution()
		ev.Pattern, ev.Component, ev.Conf = a.Pattern, a.Component, a.Conf
		ev.TableHit, ev.Evicted = a.TableHit, a.Evicted
		ev.NewEntry, ev.AltCorrect = a.NewEntry, a.AltCorrect
	}
	l.sink.Record(ev)
}

// Lane is the accounting kernel for one predictor: the rule in the package
// comment, applied record by record with the running counters, exported so
// that everything driving a predictor over records — the batch engine, the
// streaming service and its tuner's swap replay — goes through this one
// loop and agrees with Run by construction.
//
// A Lane is not safe for concurrent use. It publishes no sim_* telemetry
// and leaves Result.Tables nil; both belong to the batch engine.
type Lane struct{ lane }

// NewLane returns a kernel driving p under opts (Warmup, Shadow, Sites,
// FlushEvery and Events mean what they mean to Run).
func NewLane(p core.Predictor, opts Options) *Lane {
	l := &Lane{}
	l.init(p, opts, nil)
	return l
}

// Step advances the lane over block. A panic in the predictor or the
// observer kills the lane: Step returns the *PanicError, then and on every
// later call, without touching the predictor again.
func (l *lane) Step(block []trace.Record) error {
	if l.err == nil {
		l.runBlock(block)
	}
	return l.err
}

// Result returns the accounting so far.
func (l *lane) Result() Result { return l.res }

// Predictor returns the predictor the lane drives.
func (l *lane) Predictor() core.Predictor { return l.p }

// SetObserver installs fn (nil removes it) as the lane's one observer,
// replacing the Options.Events emitter if there was one. fn sees every
// resolved indirect branch, warmup included, and must not call back into
// the lane. With no observer the kernel pays one nil check per branch.
func (l *lane) SetObserver(fn func(Outcome)) { l.observe = fn }

// blockSize is how many trace records a lane processes per protected block;
// the context is polled once per block. A power of two matching the old
// single-lane cancellation stride keeps partial results at cancellation
// identical to the previous engine.
const blockSize = 1 << 13

// RunBatchEach simulates each predictor — with its own Options — over the
// trace in a single pass.
//
// Lanes may share hybrid components: when *core.Hybrid lanes hold the same
// component by pointer, the engine steps that component once per branch
// (PredictConf then Update, with a FlushEvery reset where the lanes' runs
// would have one) and records its votes; each such lane then arbitrates
// over its components' votes with core.Ballot, as Hybrid.Predict does, and
// accounts for the branch in its own loop. The results equal those of
// private components. Lanes sharing a component must agree on FlushEvery
// and carry no Options.Events sink (event attribution reads the hybrid's
// own Predict), and no lane's predictor may itself be a shared component;
// RunBatchEach rejects such batches. Everything else stays lane-private:
// predictors and shadows must not otherwise share mutable state, or the
// interleaved updates of one lane would corrupt another.
//
// A panic inside one lane's predictor kills that lane only, and a panic
// inside a shared component kills exactly the lanes holding it: their
// partial Results must be discarded, and each failure is reported as a
// LaneError (wrapping *PanicError) inside a *BatchError. Lanes absent from
// the BatchError completed normally and their Results are valid.
//
// Cancellation is checked between blocks of records; once ctx is done the
// partial results accumulated so far are returned with an error satisfying
// errors.Is(err, ctx.Err()). Partial results are internally consistent (all
// counters describe the records actually simulated) but must not be mistaken
// for full-trace measurements.
func RunBatchEach(ctx context.Context, ps []core.Predictor, tr trace.Trace, opts []Options) ([]Result, error) {
	if len(opts) != len(ps) {
		return nil, fmt.Errorf("sim: %d predictors but %d option sets", len(ps), len(opts))
	}
	if len(opts) > 1 {
		sinks := make(map[*ptrace.EventSink]int)
		for i, o := range opts {
			if o.Events == nil {
				continue
			}
			if j, dup := sinks[o.Events]; dup {
				return nil, fmt.Errorf("sim: lanes %d and %d share one Options.Events sink; a sink serves exactly one lane", j, i)
			}
			sinks[o.Events] = i
		}
	}
	cols, laneCols, err := shareComponents(ps, opts, min(blockSize, len(tr)))
	if err != nil {
		return nil, err
	}
	m := newRunMetrics(telemetry.Default())
	lanes := make([]lane, len(ps))
	var ballots []*ballot
	for i := range lanes {
		lanes[i].init(ps[i], opts[i], m)
		if laneCols[i] != nil {
			// The lane arbitrates over its columns' votes; the columns
			// step (and flush) the components.
			b := &ballot{}
			for _, c := range laneCols[i] {
				b.votes = append(b.votes, cols[c].votes)
			}
			lanes[i].p, lanes[i].resetter = b, nil
			ballots = append(ballots, b)
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	done := ctx.Done()
	live := len(lanes)
	for base := 0; base < len(tr) && live > 0; base += blockSize {
		if done != nil {
			select {
			case <-done:
				return collect(lanes, ctx.Err(), m)
			default:
			}
		}
		end := base + blockSize
		if end > len(tr) {
			end = len(tr)
		}
		block := tr[base:end]
		for _, b := range ballots {
			b.k = 0
		}
		for _, c := range cols {
			if c.err != nil || !c.held(lanes) {
				continue
			}
			if c.step(block); c.err != nil {
				for _, u := range c.users {
					if l := &lanes[u]; l.err == nil {
						l.err = c.err
						live--
						if m != nil {
							m.panics.Inc()
						}
					}
				}
			}
		}
		for i := range lanes {
			if l := &lanes[i]; l.err == nil {
				l.step(block, m)
				if l.err != nil {
					live--
				}
			}
		}
	}
	return collect(lanes, nil, m)
}

// column is one hybrid component shared by lanes of a batch. The engine
// steps it once per branch of a block and keeps its votes for the lanes
// holding it to read.
type column struct {
	c        core.Component
	resetter core.Resetter
	flush    int // the FlushEvery of every lane holding it
	seen     int
	votes    []core.Vote // one per indirect branch of the current block
	users    []int       // the lanes holding it
	err      error       // non-nil once the component panicked
}

// held reports whether a live lane still reads the column.
func (c *column) held(lanes []lane) bool {
	for _, u := range c.users {
		if lanes[u].err == nil {
			return true
		}
	}
	return false
}

// step advances the component over one block, recording a vote per indirect
// branch. Conditional records are skipped: a Hybrid hands its components
// none. A panic marks the column failed.
func (c *column) step(block []trace.Record) {
	seen := c.seen
	defer func() {
		c.seen = seen
		if r := recover(); r != nil {
			c.err = &PanicError{Val: r, Stack: debug.Stack()}
		}
	}()
	k := 0
	for _, r := range block {
		if !r.Kind.Indirect() {
			continue
		}
		if c.flush > 0 && seen > 0 && seen%c.flush == 0 && c.resetter != nil {
			c.resetter.Reset()
		}
		t, conf, ok := c.c.PredictConf(r.PC)
		c.c.Update(r.PC, r.Target)
		c.votes[k] = core.Vote{Target: t, Conf: conf, OK: ok}
		k++
		seen++
	}
}

// ballot stands in for the hybrid of a lane whose components the batch
// shares: its Predict arbitrates over the components' votes for the
// block's current branch, as Hybrid.Predict would, and Update moves to the
// next branch.
type ballot struct {
	votes [][]core.Vote // per component, in tie-break order
	k     int           // the branch's index within the block
}

func (b *ballot) Predict(uint32) (uint32, bool) {
	bl := core.NewBallot()
	for i, v := range b.votes {
		bl.Offer(i, v[b.k])
	}
	return bl.Target, bl.OK()
}

func (b *ballot) Update(uint32, uint32) { b.k++ }

func (b *ballot) Name() string { return "ballot" }

// shareComponents finds the hybrid components that more than one lane holds
// by pointer. It returns a column, with room for a block of the given
// length, for every component of every lane holding a shared one, and for
// each lane the indices of its columns in tie-break order (nil for a lane
// that steps its predictor itself).
func shareComponents(ps []core.Predictor, opts []Options, block int) ([]*column, [][]int, error) {
	laneCols := make([][]int, len(ps))
	if len(ps) < 2 {
		return nil, laneCols, nil
	}
	holders := make(map[core.Component][]int)
	for i, p := range ps {
		h, ok := p.(*core.Hybrid)
		if !ok {
			continue
		}
		for _, c := range h.Components() {
			if !isPointer(c) {
				continue
			}
			if hs := holders[c]; len(hs) == 0 || hs[len(hs)-1] != i {
				holders[c] = append(hs, i)
			}
		}
	}
	var cols []*column
	index := make(map[core.Component]int)
	for i, p := range ps {
		h, ok := p.(*core.Hybrid)
		if !ok || !holdsShared(h, holders) {
			continue
		}
		if opts[i].Events != nil {
			return nil, nil, fmt.Errorf("sim: lane %d shares hybrid components but has an Options.Events sink; event attribution needs private components", i)
		}
		for _, c := range h.Components() {
			j, ok := index[c]
			if !ok {
				j = len(cols)
				index[c] = j
				rst, _ := c.(core.Resetter)
				cols = append(cols, &column{c: c, resetter: rst, flush: opts[i].FlushEvery,
					votes: make([]core.Vote, block)})
			}
			col := cols[j]
			if col.flush != opts[i].FlushEvery {
				return nil, nil, fmt.Errorf("sim: lanes %d and %d share a hybrid component but differ in FlushEvery (%d, %d)",
					col.users[0], i, col.flush, opts[i].FlushEvery)
			}
			col.users = append(col.users, i)
			laneCols[i] = append(laneCols[i], j)
		}
	}
	for i, p := range ps {
		if c, ok := p.(core.Component); ok && isPointer(c) {
			if j, shared := index[c]; shared {
				return nil, nil, fmt.Errorf("sim: lane %d's predictor is also a shared hybrid component of lane %d", i, cols[j].users[0])
			}
		}
	}
	return cols, laneCols, nil
}

// holdsShared reports whether h holds a component that another lane holds.
func holdsShared(h *core.Hybrid, holders map[core.Component][]int) bool {
	for _, c := range h.Components() {
		if isPointer(c) && len(holders[c]) > 1 {
			return true
		}
	}
	return false
}

// isPointer reports whether c is a pointer, the only kind of component whose
// identity the engine can share.
func isPointer(c core.Component) bool {
	return reflect.ValueOf(c).Kind() == reflect.Pointer
}

// collect gathers per-lane results and folds lane failures (and an optional
// cancellation error) into the returned error.
func collect(lanes []lane, cancel error, m *runMetrics) ([]Result, error) {
	results := make([]Result, len(lanes))
	var failed []LaneError
	for i := range lanes {
		lanes[i].finishStats(m)
		results[i] = lanes[i].res
		if lanes[i].err != nil {
			failed = append(failed, LaneError{Lane: i, Err: lanes[i].err})
		}
	}
	var err error
	if failed != nil {
		err = &BatchError{Lanes: failed}
	}
	switch {
	case cancel == nil:
	case err == nil:
		err = cancel // keep the identity of ctx.Err() when it is the only failure
	default:
		err = errors.Join(cancel, err)
	}
	return results, err
}

// RunBatch is RunBatchEach with one shared Options value. Options.Shadow
// and Options.Events must be nil unless there is exactly one lane — a shadow
// trains on (and a sink captures) one lane's branches and cannot serve
// several lanes.
func RunBatch(ctx context.Context, ps []core.Predictor, tr trace.Trace, opts Options) ([]Result, error) {
	if opts.Shadow != nil && len(ps) > 1 {
		return nil, fmt.Errorf("sim: one Options.Shadow cannot serve %d lanes; use RunBatchEach with a shadow per lane", len(ps))
	}
	if opts.Events != nil && len(ps) > 1 {
		return nil, fmt.Errorf("sim: one Options.Events sink cannot serve %d lanes; use RunBatchEach with a sink per lane", len(ps))
	}
	all := make([]Options, len(ps))
	for i := range all {
		all[i] = opts
	}
	return RunBatchEach(ctx, ps, tr, all)
}

// Run simulates the predictor over the trace. Conditional-branch records are
// delivered to predictors that read them (core.ConsumesCond); return records
// are skipped (see the ras package).
func Run(p core.Predictor, tr trace.Trace, opts Options) Result {
	res, _ := RunContext(context.Background(), p, tr, opts)
	return res
}

// RunContext is Run with cooperative cancellation: the context is polled
// every few thousand records and, once it is done, the partial Result
// accumulated so far is returned together with ctx.Err(). It is the
// single-lane form of RunBatchEach and keeps the historical contract that a
// predictor panic propagates to the caller.
func RunContext(ctx context.Context, p core.Predictor, tr trace.Trace, opts Options) (Result, error) {
	rs, err := RunBatchEach(ctx, []core.Predictor{p}, tr, []Options{opts})
	if err != nil {
		var pe *PanicError
		if errors.As(err, &pe) {
			panic(pe.Val)
		}
		return rs[0], err
	}
	return rs[0], nil
}

// MissRate is a convenience wrapper: simulate and return the misprediction
// percentage with default options.
func MissRate(p core.Predictor, tr trace.Trace) float64 {
	return Run(p, tr, Options{}).MissRate()
}
