// Log-bucketed latency histograms, the registry's only duration metric.
//
// A Histogram keeps a count/total-ns pair (snapshot keys <name>_count and
// <name>_ns) and adds a fixed array of atomic bucket
// counters over a log2 scale with 4 sub-buckets per octave — ~12% worst-case
// relative error on any quantile, 1.3KB per histogram, no locks, and an
// Observe that is two atomic adds and an atomic increment with zero
// allocations enabled or disabled. That is cheap enough to sit on every
// per-frame hot-path duration in serve and cluster.
package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// histSub sub-buckets per power of two; each bucket spans a 1/histSub
	// fraction of its octave, bounding quantile error to ~1/(2·histSub).
	histSub     = 4
	histSubBits = 2 // log2(histSub)
	// numHistBuckets covers durations up to 2^40 ns (~18 minutes); anything
	// slower lands in the last (overflow) bucket. 160 buckets total.
	numHistBuckets = (40-histSubBits)*histSub + histSub
)

// histIndex maps a nanosecond value to its bucket. Values below histSub map
// to their own exact buckets; beyond that the index is (octave, sub-bucket)
// flattened, monotone in ns.
func histIndex(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	exp := bits.Len64(ns) - 1 - histSubBits
	idx := exp*histSub + int(ns>>uint(exp)) // ns>>exp ∈ [histSub, 2·histSub)
	if idx >= numHistBuckets {
		return numHistBuckets - 1
	}
	return idx
}

// histUpper returns the exclusive upper edge (in ns) of bucket idx; the last
// bucket is unbounded and reports the largest representable edge.
func histUpper(idx int) uint64 {
	if idx < histSub {
		return uint64(idx) + 1
	}
	exp := idx / histSub
	sub := idx % histSub
	return uint64(histSub+sub+1) << uint(exp-1)
	// idx = exp*histSub + (histSub+sub) was produced by histIndex with that
	// exp, so the bucket holds ns with ns>>exp == histSub+sub.
}

// histLower returns the inclusive lower edge (in ns) of bucket idx.
func histLower(idx int) uint64 {
	if idx < histSub {
		return uint64(idx)
	}
	exp := idx / histSub
	sub := idx % histSub
	return uint64(histSub+sub) << uint(exp-1)
}

// Histogram accumulates duration observations into log-spaced buckets and
// answers quantile queries. The nil Histogram is a valid no-op, same contract
// as every other handle in this package. Snapshot emits its <name>_count /
// <name>_ns keys plus quantiles.
type Histogram struct {
	n       atomic.Uint64
	ns      atomic.Uint64
	buckets [numHistBuckets]atomic.Uint64
}

// Observe records one duration. Zero allocations, three uncontended atomic
// ops; negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.n.Add(1)
	h.ns.Add(ns)
	h.buckets[histIndex(ns)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Total returns the accumulated duration.
func (h *Histogram) Total() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.ns.Load())
}

// Mean returns the average observation, 0 before the first one.
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Total() / time.Duration(n)
}

// Quantile returns the q-quantile (q in [0,1]) of everything observed so
// far, linearly interpolated inside the winning bucket. Concurrent Observes
// make the read approximate in the same way Snapshot is: each bucket is read
// atomically, the set of buckets is not one global cut. Returns 0 before the
// first observation.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	var counts [numHistBuckets]uint64
	total := uint64(0)
	for i := range h.buckets {
		c := h.buckets[i].Load()
		counts[i] = c
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	// Nearest-rank target, then interpolate within the bucket that holds it.
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	cum := uint64(0)
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if rank < cum+c {
			lo, hi := histLower(i), histUpper(i)
			frac := (float64(rank-cum) + 0.5) / float64(c)
			return time.Duration(float64(lo) + frac*float64(hi-lo))
		}
		cum += c
	}
	return 0 // unreachable: total > 0 guarantees a winning bucket
}

// bucketCumulative appends the non-empty buckets as (upper-edge-ns,
// cumulative-count) pairs — the Prometheus _bucket{le=...} series. The
// returned cumulative of the last pair equals Count at read time.
type histBucket struct {
	upperNS uint64
	cum     uint64
}

func (h *Histogram) cumulative(dst []histBucket) []histBucket {
	if h == nil {
		return dst[:0]
	}
	dst = dst[:0]
	cum := uint64(0)
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		dst = append(dst, histBucket{upperNS: histUpper(i), cum: cum})
	}
	return dst
}

// histQuantiles are the quantiles every histogram exports in snapshots and
// on /metrics, chosen to match ibpload's client-side report.
var histQuantiles = [...]struct {
	q      float64
	suffix string
}{
	{0.50, "_p50_ns"},
	{0.95, "_p95_ns"},
	{0.99, "_p99_ns"},
	{0.999, "_p999_ns"},
}

// Histogram returns the named histogram, creating it on first use. Returns
// nil (the no-op handle) on the nil Registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}
