// Package table implements the second level of the predictors: target
// tables. The paper's progression from ideal to implementable hardware maps
// to four bounded organizations over 64-bit keys — fully-associative LRU,
// set-associative (1/2/4-way, LRU per set), direct-mapped tagged (1-way),
// and tagless direct-mapped — plus unbounded map-backed tables used for the
// §3 unconstrained experiments and for capacity-miss attribution.
package table

import (
	"fmt"
	"math/bits"
)

// Entry is one target-table entry. Beyond the predicted target it carries
// the hysteresis bit of the two-miss update rule (§3.1 "2bc") and the
// confidence counter used for hybrid metaprediction (§6.1). The tag and
// valid bit are managed by the owning table.
// Fields are ordered wide-to-narrow so the struct packs into exactly 24
// bytes with no padding — the dense tables are flat []Entry arrays, and the
// hot loop's cache footprint is 24B × entries.
type Entry struct {
	key uint64
	// Target is the predicted target address.
	Target uint32
	// Next is the predicted address of the next indirect branch (the
	// §8.1 run-ahead extension); zero when unknown.
	Next uint32
	// gen stamps the generation of the owning dense table (Tagless,
	// SetAssoc) that wrote the entry: those tables reset in O(1) by bumping
	// their generation, which makes every older entry read as invalid.
	// List- and map-backed tables leave it zero.
	gen   uint32
	valid bool
	// Hyst is the hysteresis state of the two-miss update rule: nonzero
	// when the previous access to this entry was a misprediction.
	Hyst uint8
	// Conf is the saturating confidence counter (§6.1). Tables reset it
	// to zero when an entry is replaced.
	Conf uint8
	// Chosen is the auxiliary counter of the paper's §8.1 shared-table
	// hybrid: how often this entry's prediction was selected.
	Chosen uint8
}

// Valid reports whether the entry currently holds a prediction.
func (e *Entry) Valid() bool { return e.valid }

// Key returns the full key stored with the entry (the tag).
func (e *Entry) Key() uint64 { return e.key }

// reset prepares the entry for a new key; replacing an entry resets all
// counters (§6.1).
func (e *Entry) reset(key uint64) {
	e.key = key
	e.valid = true
	e.Target = 0
	e.Hyst = 0
	e.Conf = 0
	e.Chosen = 0
	e.Next = 0
}

// Stats is a point-in-time summary of one table's behaviour counters, the
// raw material of the telemetry layer's occupancy/eviction reporting. The
// counters are plain (non-atomic) fields on the tables — a table belongs to
// exactly one simulation lane — and tracking them costs one increment on the
// insert path only, never on the predict path.
type Stats struct {
	// Kind is the table organization ("assoc4", "tagless", ...).
	Kind string `json:"kind"`
	// Capacity is the table size in entries, -1 if unbounded.
	Capacity int `json:"capacity"`
	// Occupancy is the fraction of entries valid at snapshot time
	// (unbounded tables report 1).
	Occupancy float64 `json:"occupancy"`
	// Inserts counts entry allocations (including those that evicted).
	Inserts uint64 `json:"inserts"`
	// Evictions is the subset of Inserts that displaced a live entry.
	Evictions uint64 `json:"evictions"`
	// Resets counts whole-table clears (generation bumps for the dense
	// organizations).
	Resets uint64 `json:"resets"`
}

// add accumulates o into s, keeping Kind/Capacity of the first table and
// averaging occupancy weights by table count at the caller's discretion.
func (s *Stats) add(o Stats) {
	s.Inserts += o.Inserts
	s.Evictions += o.Evictions
	s.Resets += o.Resets
}

// Sub returns s with prev's counters subtracted: the table movement between
// two snapshots of the same table. Occupancy (a point-in-time value) is kept
// from s. Simulation lanes use it to report per-run deltas even when the
// predictor is a reused instance whose lifetime counters span earlier cells.
func (s Stats) Sub(prev Stats) Stats {
	s.Inserts -= prev.Inserts
	s.Evictions -= prev.Evictions
	s.Resets -= prev.Resets
	return s
}

// Merge folds a set of per-table stats into one aggregate: counters sum,
// occupancy averages over the bounded tables, capacity sums (−1 if any
// component is unbounded). It is what a multi-table predictor reports as a
// single per-Result line.
func Merge(stats []Stats) Stats {
	var out Stats
	bounded := 0
	for i, st := range stats {
		if i == 0 {
			out.Kind = st.Kind
		} else if out.Kind != st.Kind {
			out.Kind = "mixed"
		}
		out.add(st)
		if st.Capacity < 0 || out.Capacity < 0 {
			out.Capacity = -1
		} else {
			out.Capacity += st.Capacity
		}
		if st.Capacity >= 0 {
			out.Occupancy += st.Occupancy
			bounded++
		}
	}
	if bounded > 0 {
		out.Occupancy /= float64(bounded)
	} else if len(stats) > 0 {
		out.Occupancy = 1
	}
	return out
}

// Bounded is a prediction table over 64-bit keys. The predictor calls Probe
// first; on nil it may call Insert to allocate an entry (choosing a victim
// if the table is full). Probe updates recency state on a hit.
type Bounded interface {
	// Probe returns the entry for key, or nil if the table has no
	// prediction for it.
	Probe(key uint64) *Entry
	// Insert allocates (possibly by eviction) an entry for key, resets
	// its fields, and returns it. The caller sets Target afterwards.
	Insert(key uint64) *Entry
	// ProbeOrInsert combines Probe and Insert into one table walk: it
	// returns the existing entry for key with found=true (updating recency
	// like Probe), or allocates one like Insert and returns it with
	// found=false (the caller sets Target). Predictor update paths use it
	// to avoid paying two lookups per branch.
	ProbeOrInsert(key uint64) (e *Entry, found bool)
	// Capacity returns the table size in entries, or -1 if unbounded.
	Capacity() int
	// Utilization returns the fraction of entries currently valid
	// (∈ [0,1]); unbounded tables report 1.
	Utilization() float64
	// Victim returns the valid entry that Insert(key) would evict, or nil
	// if the insertion would not displace a valid entry. It does not
	// modify the table; the §8.1 shared-table hybrid consults it before
	// replacing entries.
	Victim(key uint64) *Entry
	// Reset clears all entries.
	Reset()
	// Kind returns a short organization name for reports, e.g. "assoc2".
	Kind() string
	// Stats returns the table's behaviour counters and current occupancy.
	Stats() Stats
	// Counts returns the raw insert/eviction/reset counters alone, cheap
	// enough for per-branch use: the attribution layer reads it around an
	// update to detect whether the insert evicted.
	Counts() (inserts, evictions, resets uint64)
}

func checkPow2(n int, what string) {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("table: %s must be a positive power of two, got %d", what, n))
	}
}

// Tagless is a direct-mapped table without tags: the entry selected by the
// low-order key bits is returned whatever pattern wrote it, so different
// patterns interfere — sometimes constructively (§5.2.2).
type Tagless struct {
	slots []Entry
	mask  uint64
	gen   uint32
	stats counters
}

// counters is the shared insert/eviction/reset accounting embedded in every
// table organization. The dense organizations (Tagless, SetAssoc) also keep
// live, their count of current-generation valid slots, so occupancy is O(1):
// it rises when an insert claims a dead slot and is zeroed by Reset.
type counters struct {
	inserts, evictions, resets uint64
	live                       int
}

// counts returns the raw counter values; the Counts methods of the table
// organizations delegate here.
func (c *counters) counts() (inserts, evictions, resets uint64) {
	return c.inserts, c.evictions, c.resets
}

// NewTagless returns a tagless table with the given number of entries
// (a power of two).
func NewTagless(entries int) *Tagless {
	checkPow2(entries, "entries")
	return &Tagless{slots: make([]Entry, entries), mask: uint64(entries - 1)}
}

// Probe returns the slot indexed by key if it holds any prediction. No tag
// comparison is performed.
func (t *Tagless) Probe(key uint64) *Entry {
	e := &t.slots[key&t.mask]
	if !e.valid || e.gen != t.gen {
		return nil
	}
	return e
}

// Insert claims the slot indexed by key.
func (t *Tagless) Insert(key uint64) *Entry {
	e := &t.slots[key&t.mask]
	t.stats.inserts++
	if !e.valid || e.gen != t.gen {
		t.stats.live++
	} else if e.key != key {
		t.stats.evictions++
	}
	e.reset(key)
	e.gen = t.gen
	return e
}

// ProbeOrInsert implements Bounded.
func (t *Tagless) ProbeOrInsert(key uint64) (*Entry, bool) {
	e := &t.slots[key&t.mask]
	if e.valid && e.gen == t.gen {
		return e, true
	}
	e.reset(key)
	e.gen = t.gen
	t.stats.inserts++
	t.stats.live++
	return e, false
}

// Victim implements Bounded.
func (t *Tagless) Victim(key uint64) *Entry {
	e := &t.slots[key&t.mask]
	if !e.valid || e.gen != t.gen {
		return nil
	}
	return e
}

// Capacity implements Bounded.
func (t *Tagless) Capacity() int { return len(t.slots) }

// Utilization implements Bounded.
func (t *Tagless) Utilization() float64 { return float64(t.stats.live) / float64(len(t.slots)) }

// Reset implements Bounded in O(1): bumping the generation makes every
// current entry read as invalid without touching the slot array. Flush-heavy
// simulations and predictor reuse across sweep cells depend on this being
// cheap. On the (unreachable in practice) 2^32nd reset the generation wraps
// and the slots are cleared for real, so ancient entries can never resurrect.
func (t *Tagless) Reset() {
	t.gen++
	t.stats.resets++
	t.stats.live = 0
	if t.gen == 0 {
		clear(t.slots)
	}
}

// Kind implements Bounded.
func (t *Tagless) Kind() string { return "tagless" }

// Counts implements Bounded.
func (t *Tagless) Counts() (inserts, evictions, resets uint64) { return t.stats.counts() }

// Stats implements Bounded.
func (t *Tagless) Stats() Stats {
	return Stats{
		Kind: t.Kind(), Capacity: t.Capacity(), Occupancy: t.Utilization(),
		Inserts: t.stats.inserts, Evictions: t.stats.evictions, Resets: t.stats.resets,
	}
}

// SetAssoc is a set-associative table with per-set LRU replacement. Ways=1
// gives a direct-mapped tagged table. Entries within a set are kept in
// recency order (index 0 most recent), which is cheap for the small
// associativities the paper studies (1, 2, 4).
type SetAssoc struct {
	ways      int
	indexBits int
	mask      uint64
	slots     []Entry // sets * ways, set-major
	gen       uint32
	stats     counters
}

// NewSetAssoc returns a table with the given total entries (power of two)
// and associativity (power of two, dividing entries).
func NewSetAssoc(entries, ways int) *SetAssoc {
	checkPow2(entries, "entries")
	checkPow2(ways, "ways")
	if ways > entries {
		panic(fmt.Sprintf("table: ways %d exceeds entries %d", ways, entries))
	}
	sets := entries / ways
	return &SetAssoc{
		ways:      ways,
		indexBits: bits.TrailingZeros(uint(sets)),
		mask:      uint64(sets - 1),
		slots:     make([]Entry, entries),
	}
}

// Ways returns the associativity.
func (t *SetAssoc) Ways() int { return t.ways }

// set returns the slice of ways for key's set.
func (t *SetAssoc) set(key uint64) []Entry {
	i := int(key&t.mask) * t.ways
	return t.slots[i : i+t.ways]
}

// Probe implements Bounded: it compares the full key against each way's tag
// and promotes a hit to most-recently-used.
func (t *SetAssoc) Probe(key uint64) *Entry {
	set := t.set(key)
	for i := range set {
		if set[i].key == key && set[i].valid && set[i].gen == t.gen {
			if i != 0 {
				hit := set[i]
				copy(set[1:i+1], set[:i])
				set[0] = hit
			}
			return &set[0]
		}
	}
	return nil
}

// Insert implements Bounded: the victim is the least recently used way (or
// an invalid way if one exists, which is always the last in recency order).
func (t *SetAssoc) Insert(key uint64) *Entry {
	set := t.set(key)
	victim := set[t.ways-1]
	t.stats.inserts++
	if victim.valid && victim.gen == t.gen {
		t.stats.evictions++
	} else {
		t.stats.live++
	}
	copy(set[1:], set[:t.ways-1])
	set[0] = victim
	set[0].reset(key)
	set[0].gen = t.gen
	return &set[0]
}

// ProbeOrInsert implements Bounded: one walk of the set either promotes the
// hit to most-recently-used (as Probe would) or claims the LRU way (as
// Insert would).
func (t *SetAssoc) ProbeOrInsert(key uint64) (*Entry, bool) {
	set := t.set(key)
	for i := range set {
		if set[i].key == key && set[i].valid && set[i].gen == t.gen {
			if i != 0 {
				hit := set[i]
				copy(set[1:i+1], set[:i])
				set[0] = hit
			}
			return &set[0], true
		}
	}
	victim := set[t.ways-1]
	t.stats.inserts++
	if victim.valid && victim.gen == t.gen {
		t.stats.evictions++
	} else {
		t.stats.live++
	}
	copy(set[1:], set[:t.ways-1])
	set[0] = victim
	set[0].reset(key)
	set[0].gen = t.gen
	return &set[0], false
}

// Victim implements Bounded.
func (t *SetAssoc) Victim(key uint64) *Entry {
	set := t.set(key)
	e := &set[t.ways-1]
	if !e.valid || e.gen != t.gen {
		return nil
	}
	return e
}

// Capacity implements Bounded.
func (t *SetAssoc) Capacity() int { return len(t.slots) }

// Utilization implements Bounded.
func (t *SetAssoc) Utilization() float64 { return float64(t.stats.live) / float64(len(t.slots)) }

// Reset implements Bounded in O(1) by generation bump (see Tagless.Reset).
func (t *SetAssoc) Reset() {
	t.gen++
	t.stats.resets++
	t.stats.live = 0
	if t.gen == 0 {
		clear(t.slots)
	}
}

// Kind implements Bounded.
func (t *SetAssoc) Kind() string { return fmt.Sprintf("assoc%d", t.ways) }

// Counts implements Bounded.
func (t *SetAssoc) Counts() (inserts, evictions, resets uint64) { return t.stats.counts() }

// Stats implements Bounded.
func (t *SetAssoc) Stats() Stats {
	return Stats{
		Kind: t.Kind(), Capacity: t.Capacity(), Occupancy: t.Utilization(),
		Inserts: t.stats.inserts, Evictions: t.stats.evictions, Resets: t.stats.resets,
	}
}

// FullAssoc is a fully-associative table with true LRU replacement,
// implemented as a hash map plus an intrusive recency list (§5.1).
type FullAssoc struct {
	capacity int
	m        map[uint64]*faNode
	mru, lru *faNode
	stats    counters
}

type faNode struct {
	Entry
	prev, next *faNode
}

// NewFullAssoc returns a fully-associative LRU table with the given
// capacity in entries (any positive count).
func NewFullAssoc(entries int) *FullAssoc {
	if entries <= 0 {
		panic(fmt.Sprintf("table: capacity must be positive, got %d", entries))
	}
	return &FullAssoc{capacity: entries, m: make(map[uint64]*faNode, entries)}
}

func (t *FullAssoc) unlink(n *faNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		t.mru = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		t.lru = n.prev
	}
	n.prev, n.next = nil, nil
}

func (t *FullAssoc) pushFront(n *faNode) {
	n.next = t.mru
	if t.mru != nil {
		t.mru.prev = n
	}
	t.mru = n
	if t.lru == nil {
		t.lru = n
	}
}

// Probe implements Bounded.
func (t *FullAssoc) Probe(key uint64) *Entry {
	n := t.m[key]
	if n == nil {
		return nil
	}
	if t.mru != n {
		t.unlink(n)
		t.pushFront(n)
	}
	return &n.Entry
}

// Insert implements Bounded, evicting the least recently used entry when the
// table is full.
func (t *FullAssoc) Insert(key uint64) *Entry {
	if n := t.m[key]; n != nil {
		// Defensive: reuse an existing entry rather than duplicating.
		t.unlink(n)
		t.pushFront(n)
		n.Entry.reset(key)
		t.stats.inserts++
		return &n.Entry
	}
	var n *faNode
	t.stats.inserts++
	if len(t.m) >= t.capacity {
		n = t.lru
		t.unlink(n)
		delete(t.m, n.key)
		t.stats.evictions++
	} else {
		n = &faNode{}
	}
	n.Entry.reset(key)
	t.m[key] = n
	t.pushFront(n)
	return &n.Entry
}

// ProbeOrInsert implements Bounded with a single map lookup.
func (t *FullAssoc) ProbeOrInsert(key uint64) (*Entry, bool) {
	if n := t.m[key]; n != nil {
		if t.mru != n {
			t.unlink(n)
			t.pushFront(n)
		}
		return &n.Entry, true
	}
	var n *faNode
	t.stats.inserts++
	if len(t.m) >= t.capacity {
		n = t.lru
		t.unlink(n)
		delete(t.m, n.key)
		t.stats.evictions++
	} else {
		n = &faNode{}
	}
	n.Entry.reset(key)
	t.m[key] = n
	t.pushFront(n)
	return &n.Entry, false
}

// Victim implements Bounded.
func (t *FullAssoc) Victim(key uint64) *Entry {
	if t.m[key] != nil || len(t.m) < t.capacity {
		return nil
	}
	return &t.lru.Entry
}

// Capacity implements Bounded.
func (t *FullAssoc) Capacity() int { return t.capacity }

// Utilization implements Bounded.
func (t *FullAssoc) Utilization() float64 {
	return float64(len(t.m)) / float64(t.capacity)
}

// Reset implements Bounded.
func (t *FullAssoc) Reset() {
	clear(t.m)
	t.mru, t.lru = nil, nil
	t.stats.resets++
}

// Kind implements Bounded.
func (t *FullAssoc) Kind() string { return "fullassoc" }

// Counts implements Bounded.
func (t *FullAssoc) Counts() (inserts, evictions, resets uint64) { return t.stats.counts() }

// Stats implements Bounded.
func (t *FullAssoc) Stats() Stats {
	return Stats{
		Kind: t.Kind(), Capacity: t.Capacity(), Occupancy: t.Utilization(),
		Inserts: t.stats.inserts, Evictions: t.stats.evictions, Resets: t.stats.resets,
	}
}

// Len returns the number of valid entries.
func (t *FullAssoc) Len() int { return len(t.m) }

// Unbounded64 is a map-backed table without capacity limits, used for the
// limited-precision §4 experiments and as the shadow twin that attributes
// capacity and conflict misses (§5.1).
type Unbounded64 struct {
	m     map[uint64]*Entry
	stats counters
}

// NewUnbounded64 returns an empty unbounded table.
func NewUnbounded64() *Unbounded64 {
	return &Unbounded64{m: make(map[uint64]*Entry)}
}

// Probe implements Bounded.
func (t *Unbounded64) Probe(key uint64) *Entry { return t.m[key] }

// Insert implements Bounded.
func (t *Unbounded64) Insert(key uint64) *Entry {
	t.stats.inserts++
	e := t.m[key]
	if e == nil {
		e = &Entry{}
		t.m[key] = e
	}
	e.reset(key)
	return e
}

// ProbeOrInsert implements Bounded.
func (t *Unbounded64) ProbeOrInsert(key uint64) (*Entry, bool) {
	if e := t.m[key]; e != nil {
		return e, true
	}
	e := &Entry{}
	e.reset(key)
	t.m[key] = e
	t.stats.inserts++
	return e, false
}

// Victim implements Bounded: an unbounded table never evicts.
func (t *Unbounded64) Victim(key uint64) *Entry { return nil }

// Capacity implements Bounded (-1: unbounded).
func (t *Unbounded64) Capacity() int { return -1 }

// Utilization implements Bounded.
func (t *Unbounded64) Utilization() float64 { return 1 }

// Reset implements Bounded.
func (t *Unbounded64) Reset() {
	clear(t.m)
	t.stats.resets++
}

// Kind implements Bounded.
func (t *Unbounded64) Kind() string { return "unbounded" }

// Counts implements Bounded.
func (t *Unbounded64) Counts() (inserts, evictions, resets uint64) { return t.stats.counts() }

// Stats implements Bounded.
func (t *Unbounded64) Stats() Stats {
	return Stats{
		Kind: t.Kind(), Capacity: -1, Occupancy: 1,
		Inserts: t.stats.inserts, Resets: t.stats.resets,
	}
}

// Len returns the number of patterns stored (the paper quotes pattern counts
// per path length, §5.1).
func (t *Unbounded64) Len() int { return len(t.m) }

// UnboundedStr is the unbounded table over exact byte-string keys used by
// the §3 full-precision predictors, where keys (selector + p full targets)
// exceed 64 bits.
type UnboundedStr struct {
	m     map[string]*Entry
	stats counters
}

// NewUnboundedStr returns an empty table.
func NewUnboundedStr() *UnboundedStr {
	return &UnboundedStr{m: make(map[string]*Entry)}
}

// Probe returns the entry for key or nil. The []byte key avoids allocation
// on lookups.
func (t *UnboundedStr) Probe(key []byte) *Entry { return t.m[string(key)] }

// Insert allocates an entry for key.
func (t *UnboundedStr) Insert(key []byte) *Entry {
	t.stats.inserts++
	e := t.m[string(key)]
	if e == nil {
		e = &Entry{}
		t.m[string(key)] = e
	}
	e.reset(0)
	return e
}

// ProbeOrInsert returns the existing entry for key (found=true) or allocates
// a fresh one (found=false) with a single map lookup on the hit path. The
// map is indexed by string(key) directly so probes never allocate; only a
// genuine insertion materializes the key string.
func (t *UnboundedStr) ProbeOrInsert(key []byte) (*Entry, bool) {
	if e := t.m[string(key)]; e != nil {
		return e, true
	}
	e := &Entry{}
	e.reset(0)
	t.m[string(key)] = e
	t.stats.inserts++
	return e, false
}

// Len returns the number of patterns stored.
func (t *UnboundedStr) Len() int { return len(t.m) }

// Reset clears the table.
func (t *UnboundedStr) Reset() {
	clear(t.m)
	t.stats.resets++
}

// Counts returns the raw behaviour counters (see Bounded.Counts).
func (t *UnboundedStr) Counts() (inserts, evictions, resets uint64) { return t.stats.counts() }

// Stats reports the exact table's behaviour counters (it is not a Bounded,
// but predictors aggregate its stats the same way).
func (t *UnboundedStr) Stats() Stats {
	return Stats{
		Kind: "exact", Capacity: -1, Occupancy: 1,
		Inserts: t.stats.inserts, Resets: t.stats.resets,
	}
}

// New returns a Bounded table of the named organization: "tagless",
// "assoc1", "assoc2", "assoc4" (or any assoc<2^k>), "fullassoc", or
// "unbounded". It is the string form accepted by the CLI tools.
func New(kind string, entries int) (Bounded, error) {
	ways, err := Check(kind, entries)
	if err != nil {
		return nil, err
	}
	switch kind {
	case "tagless":
		return NewTagless(entries), nil
	case "fullassoc":
		return NewFullAssoc(entries), nil
	case "unbounded":
		return NewUnbounded64(), nil
	}
	return NewSetAssoc(entries, ways), nil
}

// Check reports the error New(kind, entries) would return, without
// allocating the table; for a set-associative kind it also returns the
// associativity. Like New, it leaves entry-count checks that New turns into
// panics to the caller.
func Check(kind string, entries int) (ways int, err error) {
	switch kind {
	case "tagless", "fullassoc", "unbounded":
		return 0, nil
	}
	if _, err := fmt.Sscanf(kind, "assoc%d", &ways); err == nil && ways > 0 {
		if ways&(ways-1) != 0 || ways > entries {
			return 0, fmt.Errorf("table: invalid associativity %d for %d entries", ways, entries)
		}
		return ways, nil
	}
	return 0, fmt.Errorf("table: unknown kind %q", kind)
}
