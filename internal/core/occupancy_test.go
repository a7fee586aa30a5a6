package core

import (
	"math/rand/v2"
	"runtime"
	"testing"
)

// ittageScan counts the current-generation base and bank entries the slow
// way.
func ittageScan(t *ITTAGE) (base, banks int) {
	for i := range t.base {
		if t.live(&t.base[i]) {
			base++
		}
	}
	for b := range t.banks {
		for i := range t.banks[b].entries {
			if t.live(&t.banks[b].entries[i]) {
				banks++
			}
		}
	}
	return base, banks
}

// TestITTAGEOccupancyMatchesScan checks ITTAGE's O(1) occupancy against a
// full scan over a random branch stream with resets and a generation wrap.
func TestITTAGEOccupancyMatchesScan(t *testing.T) {
	p, err := NewITTAGE(4, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 5))
	for step := 0; step < 20000; step++ {
		switch op := rng.IntN(1000); {
		case op == 0:
			p.Reset()
		case op == 1:
			p.Reset()
			p.gen = ^uint32(0) // the next Reset wraps and clears
		default:
			pc := 0x1000 + 4*rng.Uint32N(200)
			p.Predict(pc)
			p.Update(pc, 0x8000+64*rng.Uint32N(12))
		}
		base, banks := ittageScan(p)
		st := p.TableStats()
		if st[0].Occupancy != float64(base)/float64(st[0].Capacity) ||
			st[1].Occupancy != float64(banks)/float64(st[1].Capacity) {
			t.Fatalf("step %d: occupancy %v/%v, scan finds %d/%d and %d/%d live",
				step, st[0].Occupancy, st[1].Occupancy, base, st[0].Capacity, banks, st[1].Capacity)
		}
	}
	if base, banks := ittageScan(p); base == 0 || banks == 0 {
		t.Errorf("stream ended with %d base and %d bank entries; the check saw too little", base, banks)
	}
}

// TestITTAGEUpdateAttribution: Update derives the prediction from its own
// lookup, so the attribution after an Update is the same whether or not a
// Predict came first, and matches what that Predict returned.
func TestITTAGEUpdateAttribution(t *testing.T) {
	a, err := NewITTAGE(4, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewITTAGE(4, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	a.SetAttribution(true)
	b.SetAttribution(true)
	rng := rand.New(rand.NewPCG(9, 1))
	for step := 0; step < 5000; step++ {
		pc, target := 0x1000+4*rng.Uint32N(40), 0x8000+64*rng.Uint32N(6)
		pred, ok := a.Predict(pc)
		a.Update(pc, target)
		b.Update(pc, target)
		if ga, gb := a.Attribution(), b.Attribution(); ga != gb {
			t.Fatalf("step %d: attribution %+v after Predict+Update, %+v after Update alone", step, ga, gb)
		}
		if ok && pred == target && a.Attribution().AltCorrect {
			t.Fatalf("step %d: a correct prediction flagged AltCorrect", step)
		}
	}
}

// TestValidateAllocatesNoTable: Validate checks a bounded table's kind
// without building the table.
func TestValidateAllocatesNoTable(t *testing.T) {
	cfg := Config{PathLength: 3, Precision: AutoPrecision, TableKind: "assoc4", Entries: 1 << 16}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		_ = cfg.Validate()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > 4096 {
		t.Errorf("Validate allocates %d bytes per call; a 64K-entry table is %d", per, 24<<16)
	}
	bad := cfg
	bad.TableKind = "assoc3"
	if err := bad.Validate(); err == nil || err.Error() != "table: invalid associativity 3 for 65536 entries" {
		t.Errorf("assoc3: %v", err)
	}
	bad.TableKind = "bogus"
	if err := bad.Validate(); err == nil || err.Error() != `table: unknown kind "bogus"` {
		t.Errorf("bogus: %v", err)
	}
}
