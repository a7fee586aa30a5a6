package table

import (
	"math/rand/v2"
	"testing"
)

// scanLive counts the current-generation valid slots the slow way.
func scanLive(slots []Entry, gen uint32) int {
	n := 0
	for i := range slots {
		if slots[i].valid && slots[i].gen == gen {
			n++
		}
	}
	return n
}

// TestLiveCountMatchesScan drives the dense organizations through random
// probe/insert/evict/reset sequences, including a generation wrap, and
// checks after every operation that the O(1) live-entry count behind
// Utilization equals a full scan of the slots.
func TestLiveCountMatchesScan(t *testing.T) {
	type dense struct {
		tb    Bounded
		slots []Entry
		gen   func() uint32
		wrap  func() // move the generation to just before its wrap
	}
	tl := NewTagless(64)
	a1, a2, a4 := NewSetAssoc(64, 1), NewSetAssoc(64, 2), NewSetAssoc(64, 4)
	tables := []dense{
		{tl, tl.slots, func() uint32 { return tl.gen }, func() { tl.Reset(); tl.gen = ^uint32(0) }},
	}
	for _, sa := range []*SetAssoc{a1, a2, a4} {
		tables = append(tables, dense{sa, sa.slots, func() uint32 { return sa.gen }, func() { sa.Reset(); sa.gen = ^uint32(0) }})
	}
	for _, d := range tables {
		rng := rand.New(rand.NewPCG(7, 11))
		for step := 0; step < 20000; step++ {
			key := rng.Uint64N(256) // 4x the capacity: plenty of evictions
			switch op := rng.IntN(100); {
			case op < 40:
				d.tb.ProbeOrInsert(key)
			case op < 70:
				if d.tb.Probe(key) == nil {
					d.tb.Insert(key)
				}
			case op < 90:
				d.tb.Insert(key) // overwrite a live slot too
			case op < 99:
				d.tb.Probe(key)
			case step%2 == 0:
				d.tb.Reset()
			default:
				d.wrap()
			}
			want := scanLive(d.slots, d.gen())
			if got := d.tb.Utilization(); got != float64(want)/float64(len(d.slots)) {
				t.Fatalf("%s step %d: utilization %v, scan finds %d of %d live", d.tb.Kind(), step, got, want, len(d.slots))
			}
		}
		if d.tb.Utilization() == 0 {
			t.Errorf("%s: sequence ended empty; the check saw no live slots", d.tb.Kind())
		}
	}
}
