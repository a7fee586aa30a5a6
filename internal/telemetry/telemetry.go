// Package telemetry is the instrumentation layer of the simulator: a
// registry of named atomic counters, gauges, and histograms cheap enough to stay
// enabled inside the zero-alloc simulation hot loop, plus structured-logging
// and HTTP-exposure helpers for the command-line front ends.
//
// The central design point is the nop default: a nil *Registry is the
// disabled registry, and every metric handle it returns is a nil pointer
// whose methods are nil-safe no-ops. Instrumented code resolves its handles
// once per run (`r := telemetry.Default(); c := r.Counter("...")`) and then
// updates them unconditionally — when telemetry is disabled each update
// compiles to a nil check and nothing else, and never allocates either way.
//
// Counter updates are single atomic adds, so instrumented hot paths batch
// them: the simulator accumulates per-block deltas in locals and publishes
// once per 8192-record block, keeping cross-lane cache-line traffic off the
// per-branch path.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The nil Counter is a valid
// no-op; all methods are nil-safe.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value (0 for the nil Counter).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time value that can move both ways (occupancy,
// in-flight cells). The nil Gauge is a valid no-op.
type Gauge struct{ bits atomic.Uint64 } // float64 bits

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta with a CAS loop (gauges are updated from many goroutines).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Load returns the current value (0 for the nil Gauge).
func (g *Gauge) Load() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry is a namespace of metrics. Handles are created on first use and
// live for the registry's lifetime, so callers cache them in locals or
// structs and update lock-free from any number of goroutines.
//
// The nil *Registry is the disabled registry: every lookup returns a nil
// handle and Snapshot returns nil.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// New returns an empty enabled registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// (the no-op handle) on the nil Registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on
// the nil Registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Snapshot is a point-in-time reading of every metric in a registry, keyed
// by metric name. A histogram appears as <name>_count and <name>_ns (the
// observation count and total) plus quantile entries <name>_p50_ns, _p95_ns,
// _p99_ns, _p999_ns. It marshals directly into run manifests and metric
// dumps.
type Snapshot map[string]float64

// Snapshot reads every metric. Metrics updated concurrently are read
// atomically one by one (the snapshot is not a global atomic cut, but every
// individual value is a real value the metric held). Returns nil on the nil
// Registry.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := make(Snapshot, len(r.counters)+len(r.gauges)+6*len(r.histograms))
	for name, c := range r.counters {
		s[name] = float64(c.Load())
	}
	for name, g := range r.gauges {
		s[name] = g.Load()
	}
	for name, h := range r.histograms {
		s[name+"_count"] = float64(h.Count())
		s[name+"_ns"] = float64(h.Total().Nanoseconds())
		for _, hq := range histQuantiles {
			s[name+hq.suffix] = float64(h.Quantile(hq.q).Nanoseconds())
		}
	}
	return s
}

// Delta returns s minus prev, entry-wise over s's keys: the metric movement
// between two snapshots. Keys missing from prev are taken as starting at
// zero. Zero-valued deltas are dropped, so a per-experiment delta records
// only the subsystems the experiment actually exercised. Histogram quantile
// keys (_p50_ns and friends) are dropped too: a quantile is a distribution
// read, not a cumulative value, so its difference means nothing.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	if s == nil {
		return nil
	}
	out := make(Snapshot, len(s))
	for k, v := range s {
		if isQuantileKey(k) {
			continue
		}
		if d := v - prev[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// isQuantileKey reports whether k is one of the histogram quantile snapshot
// keys excluded from Delta.
func isQuantileKey(k string) bool {
	for _, hq := range histQuantiles {
		if len(k) > len(hq.suffix) && k[len(k)-len(hq.suffix):] == hq.suffix {
			return true
		}
	}
	return false
}

// Names returns the snapshot's metric names sorted, the stable iteration
// order used by every textual rendering.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s))
	for k := range s {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// String renders the snapshot as sorted "name value" lines.
func (s Snapshot) String() string {
	var b []byte
	for _, name := range s.Names() {
		b = fmt.Appendf(b, "%s %v\n", name, s[name])
	}
	return string(b)
}

// def is the process-wide default registry; nil means disabled. Instrumented
// packages resolve it per run via Default, so flipping it takes effect on the
// next run, not mid-pass.
var def atomic.Pointer[Registry]

// Default returns the process-wide registry, or nil while telemetry is
// disabled (the initial state). The nil return is directly usable: all
// Registry methods are nil-safe no-ops.
func Default() *Registry { return def.Load() }

// Enable installs r (or a fresh registry when r is nil) as the process-wide
// default and returns it. The front ends call it once at startup.
func Enable(r *Registry) *Registry {
	if r == nil {
		r = New()
	}
	def.Store(r)
	return r
}

// Disable removes the process-wide registry; subsequent Default calls
// return nil and instrumentation reverts to the nop path.
func Disable() { def.Store(nil) }
