package core

import (
	"fmt"

	"github.com/oocsb/ibp/internal/bits"
	"github.com/oocsb/ibp/internal/table"
)

// ITTAGE is a compact indirect-target predictor in the style the paper's
// hybrid results eventually led to (Seznec's ITTAGE): a tagless base
// predictor backed by several tagged banks indexed with geometrically
// growing target-path history lengths. Where the paper picks two fixed path
// lengths and arbitrates with confidence counters, ITTAGE keeps a whole
// spectrum of lengths and lets tag matches select the longest useful one.
// Originally shipped as the "what came next" extension experiment
// (ext-ittage), it is now a first-class citizen: constructible through
// cli.PredictorFlags (-pred ittage:banks,entries,minhist), pool-compatible
// via a generation-stamped O(1) Reset, and able to explain its misses
// through the Attributor hooks.
type ITTAGE struct {
	base     []ittageEntry // tagless, indexed by pc
	baseMask uint32
	banks    []ittageBank
	hist     []uint8 // ring of compressed recent targets, newest at histHead
	histHead int
	rng      uint32 // xorshift for allocation tie-breaks (deterministic)
	gen      uint32 // current generation; entries from older ones are dead
	name     string

	// Attribution recording (see core.Attributor); off by default.
	attrib bool
	att    AttribState

	// Table behaviour counters (base, banks), for TableStatser; live
	// counts the current-generation entries, so occupancy is O(1).
	inserts   [2]uint64
	evictions [2]uint64
	occupied  [2]int
	resets    uint64
}

type ittageBank struct {
	entries []ittageEntry
	mask    uint32
	histLen int

	// Folded path history, maintained incrementally (the circular
	// shift-register trick from Seznec's TAGE family): each bank keeps the
	// XOR-fold of its most recent histLen history values compressed to
	// idxW/tagW bits, updated in O(1) per retired branch instead of
	// rehashing histLen entries on every lookup.
	foldIdx   uint32
	foldTag   uint32
	idxW      uint // fold width feeding the index, >= ittageHistBits+1
	tagW      uint // fold width feeding the tag
	outIdxPos uint // rotation offset of the outgoing value: (histLen*bits) % idxW
	outTagPos uint
}

type ittageEntry struct {
	valid  bool
	tag    uint16
	target uint32
	gen    uint32 // generation the entry was written in
	conf   uint8  // 0..3
	useful uint8  // 0..3
	hyst   uint8
}

// ittageHistBits is the number of low-order target bits shifted into the
// path history per branch (the paper's §4.1 compression, at b=4).
const ittageHistBits = 4

// ittageSeed initializes the allocation tie-break generator.
const ittageSeed = 0x2545F491

// NewITTAGE builds a predictor with the given number of tagged banks, each
// of bankEntries entries (a power of two), with history lengths growing
// geometrically from minHist by factor two, over a base table of
// 2*bankEntries entries.
func NewITTAGE(numBanks, bankEntries, minHist int) (*ITTAGE, error) {
	if numBanks < 1 || numBanks > 16 {
		return nil, fmt.Errorf("core: ittage banks %d out of range [1,16]", numBanks)
	}
	if bankEntries <= 0 || bankEntries&(bankEntries-1) != 0 {
		return nil, fmt.Errorf("core: ittage bank size must be a power of two, got %d", bankEntries)
	}
	if minHist < 1 {
		return nil, fmt.Errorf("core: ittage minimum history %d must be positive", minHist)
	}
	t := &ITTAGE{
		base:     make([]ittageEntry, 2*bankEntries),
		baseMask: uint32(2*bankEntries - 1),
		rng:      ittageSeed,
		name:     fmt.Sprintf("ittage[%dx%d,hist>=%d]", numBanks, bankEntries, minHist),
	}
	// Fold widths must be coprime with the 4-bit shift step: with 4 | w,
	// history values whose ages differ by w/4 land on the same rotated bit
	// position and XOR-cancel, collapsing every short-period stream to one
	// aliased context. Odd widths make the rotation walk all positions.
	idxW := uint(5)
	for 1<<idxW < bankEntries && idxW < 27 {
		idxW++ // fold width tracks the index width; <=27 keeps f<<4 in uint32
	}
	if idxW%2 == 0 {
		idxW++
	}
	const tagW = 13
	maxHist := minHist
	for i := 0; i < numBanks; i++ {
		b := ittageBank{
			entries: make([]ittageEntry, bankEntries),
			mask:    uint32(bankEntries - 1),
			histLen: maxHist,
			idxW:    idxW,
			tagW:    tagW,
		}
		b.outIdxPos = uint(b.histLen*ittageHistBits) % b.idxW
		b.outTagPos = uint(b.histLen*ittageHistBits) % b.tagW
		t.banks = append(t.banks, b)
		maxHist *= 2
	}
	t.hist = make([]uint8, t.banks[numBanks-1].histLen)
	return t, nil
}

// live reports whether e holds current-generation state. Entries written
// before the last Reset stay physically in place but read as empty, the
// same generation-stamp trick the dense table organizations use to make
// Reset O(1).
func (t *ITTAGE) live(e *ittageEntry) bool { return e.valid && e.gen == t.gen }

// foldPush rotates a w-bit circular shift register left by ittageHistBits,
// inserts the new value v at the bottom, and XOR-removes the value leaving
// the window (out, now rotated to outPos). Requires ittageHistBits <= w <= 28
// so the pre-fold shift stays inside uint32.
func foldPush(f, v, out uint32, w, outPos uint) uint32 {
	mask := uint32(1)<<w - 1
	f = f<<ittageHistBits ^ v
	f ^= f >> w // wrap the shifted-out top bits back to the bottom
	f &= mask
	o := out << outPos
	return f ^ (o^o>>w)&mask
}

// pushHist records a resolved target into the path history and advances
// every bank's folded registers in O(banks), independent of history length.
func (t *ITTAGE) pushHist(target uint32) {
	v := uint32(bits.Field(target, 2, ittageHistBits))
	for b := range t.banks {
		bank := &t.banks[b]
		out := uint32(t.hist[(t.histHead+bank.histLen-1)%len(t.hist)])
		bank.foldIdx = foldPush(bank.foldIdx, v, out, bank.idxW, bank.outIdxPos)
		bank.foldTag = foldPush(bank.foldTag, v, out, bank.tagW, bank.outTagPos)
	}
	t.histHead--
	if t.histHead < 0 {
		t.histHead = len(t.hist) - 1
	}
	t.hist[t.histHead] = uint8(v)
}

// hash mixes the branch address with bank b's folded history. The low 16
// bits feed the bank index (masked by the caller), the high 16 the tag.
func (t *ITTAGE) hash(pc uint32, b int) uint32 {
	bank := &t.banks[b]
	a := pc >> 2
	idx := a ^ a>>bank.idxW ^ bank.foldIdx
	tag := a ^ bank.foldTag ^ bank.foldTag>>2
	return idx&0xffff | tag<<16
}

// lookup finds the provider (longest matching bank) and the alternate
// prediction. provider == -1 means the base table provides; altBank is the
// alternate's bank index, -1 when the alternate is the base entry.
func (t *ITTAGE) lookup(pc uint32) (provider int, pe *ittageEntry, alt *ittageEntry, altBank int) {
	provider = -1
	for b := len(t.banks) - 1; b >= 0; b-- {
		bank := &t.banks[b]
		h := t.hash(pc, b)
		e := &bank.entries[h&bank.mask]
		if t.live(e) && e.tag == uint16(h>>16) {
			if pe == nil {
				provider = b
				pe = e
			} else {
				return provider, pe, e, b
			}
		}
	}
	be := &t.base[(pc>>2)&t.baseMask]
	if pe == nil {
		return -1, be, nil, -1
	}
	return provider, pe, be, -1
}

// Predict implements Predictor.
func (t *ITTAGE) Predict(pc uint32) (uint32, bool) {
	provider, pe, alt, altBank := t.lookup(pc)
	return t.choose(pc, provider, pe, alt, altBank)
}

// choose turns a lookup into the prediction, recording its attribution.
func (t *ITTAGE) choose(pc uint32, provider int, pe, alt *ittageEntry, altBank int) (uint32, bool) {
	if t.attrib {
		t.att = AttribState{Component: int16(provider)}
		if provider < 0 {
			t.att.Pattern = uint64(pc >> 2)
			t.att.TableHit = t.live(pe)
		} else {
			h := t.hash(pc, provider)
			t.att.Pattern = uint64(h) | uint64(provider+1)<<32
			t.att.TableHit = true
		}
		if t.live(pe) {
			t.att.Conf = pe.conf
		}
	}
	if provider < 0 {
		if !t.live(pe) {
			return 0, false
		}
		return pe.target, true
	}
	// A freshly allocated (weak) provider defers to a confident
	// alternate, the standard TAGE "use alt on new entry" heuristic.
	if pe.conf == 0 && alt != nil && t.live(alt) && alt.conf > 0 {
		if t.attrib {
			t.att.Component = int16(altBank)
			t.att.Conf = alt.conf
		}
		return alt.target, true
	}
	return pe.target, true
}

// Update implements Predictor.
func (t *ITTAGE) Update(pc, target uint32) {
	provider, pe, alt, altBank := t.lookup(pc)
	predicted, havePred := t.choose(pc, provider, pe, alt, altBank)
	correct := havePred && predicted == target

	if provider >= 0 {
		provCorrect := t.live(pe) && pe.target == target
		altCorrect := alt != nil && t.live(alt) && alt.target == target
		if t.attrib && !correct && (provCorrect || altCorrect) {
			t.att.AltCorrect = true
		}
		if provCorrect && !altCorrect && pe.useful < 3 {
			pe.useful++
		}
		if !provCorrect && altCorrect && pe.useful > 0 {
			pe.useful--
		}
		if provCorrect {
			if pe.conf < 3 {
				pe.conf++
			}
			pe.hyst = 0
		} else {
			if pe.conf > 0 {
				pe.conf--
			}
			if pe.hyst != 0 || pe.conf == 0 {
				pe.target = target
				pe.conf = 0
				pe.hyst = 0
			} else {
				pe.hyst = 1
			}
		}
	}

	// The base table always trains (2bc rule).
	be := &t.base[(pc>>2)&t.baseMask]
	if !t.live(be) {
		be.valid = true
		be.gen = t.gen
		be.target = target
		be.conf = 0
		be.useful = 0
		be.hyst = 0
		t.inserts[0]++
		t.occupied[0]++
	} else if be.target == target {
		be.hyst = 0
		if be.conf < 3 {
			be.conf++
		}
	} else {
		if be.conf > 0 {
			be.conf--
		}
		if be.hyst != 0 {
			be.target = target
			be.hyst = 0
		} else {
			be.hyst = 1
		}
	}

	// On a misprediction, try to allocate a longer-history entry.
	if !correct && provider < len(t.banks)-1 {
		t.allocate(pc, target, provider+1)
	}
	t.pushHist(target)
}

// allocate claims a not-useful entry in one of the banks at or above
// fromBank for (pc, history), decaying useful bits when none is free.
func (t *ITTAGE) allocate(pc, target uint32, fromBank int) {
	// Randomize the starting bank a little so allocations spread.
	start := fromBank
	if start < len(t.banks)-1 && t.nextRand()&1 == 0 {
		start++
	}
	for b := start; b < len(t.banks); b++ {
		bank := &t.banks[b]
		h := t.hash(pc, b)
		e := &bank.entries[h&bank.mask]
		if !t.live(e) || e.useful == 0 {
			if t.live(e) {
				t.evictions[1]++
			} else {
				t.occupied[1]++
			}
			t.inserts[1]++
			if t.attrib {
				t.att.NewEntry = true
				t.att.Evicted = t.live(e)
			}
			e.valid = true
			e.gen = t.gen
			e.tag = uint16(h >> 16)
			e.target = target
			e.conf = 0
			e.useful = 0
			e.hyst = 0
			return
		}
	}
	// Nothing free: age the candidates so a future allocation succeeds.
	for b := fromBank; b < len(t.banks); b++ {
		bank := &t.banks[b]
		h := t.hash(pc, b)
		e := &bank.entries[h&bank.mask]
		if t.live(e) && e.useful > 0 {
			e.useful--
		}
	}
}

// nextRand is a deterministic xorshift32.
func (t *ITTAGE) nextRand() uint32 {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 17
	t.rng ^= t.rng << 5
	return t.rng
}

// Name implements Predictor.
func (t *ITTAGE) Name() string { return t.name }

// Storage returns the total entry count (base plus banks), for
// equal-budget comparisons.
func (t *ITTAGE) Storage() int {
	n := len(t.base)
	for _, b := range t.banks {
		n += len(b.entries)
	}
	return n
}

// SetAttribution implements Attributor.
func (t *ITTAGE) SetAttribution(on bool) { t.attrib = on }

// Attribution implements Attributor.
func (t *ITTAGE) Attribution() AttribState { return t.att }

// TableStats implements TableStatser: one row for the tagless base, one
// aggregated row for the tagged banks.
func (t *ITTAGE) TableStats() []table.Stats {
	capBanks := 0
	for b := range t.banks {
		capBanks += len(t.banks[b].entries)
	}
	return []table.Stats{
		{
			Kind:      "ittage-base",
			Capacity:  len(t.base),
			Occupancy: float64(t.occupied[0]) / float64(len(t.base)),
			Inserts:   t.inserts[0],
			Evictions: t.evictions[0],
			Resets:    t.resets,
		},
		{
			Kind:      "ittage-banks",
			Capacity:  capBanks,
			Occupancy: float64(t.occupied[1]) / float64(capBanks),
			Inserts:   t.inserts[1],
			Evictions: t.evictions[1],
			Resets:    t.resets,
		},
	}
}

// Reset implements Resetter in O(1): bump the generation so every entry
// reads as empty, clear the (short) history ring, and rewind the allocation
// tie-break generator so a reused instance replays bit-identically to a
// fresh one.
func (t *ITTAGE) Reset() {
	t.gen++
	if t.gen == 0 {
		// Generation counter wrapped: physically clear once per 2^32
		// resets so stale entries cannot masquerade as live.
		clear(t.base)
		for i := range t.banks {
			clear(t.banks[i].entries)
		}
	}
	clear(t.hist)
	t.histHead = 0
	for b := range t.banks {
		t.banks[b].foldIdx = 0
		t.banks[b].foldTag = 0
	}
	t.rng = ittageSeed
	t.resets++
	t.occupied = [2]int{}
	t.att = AttribState{}
}
