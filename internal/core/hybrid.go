package core

import (
	"fmt"
	"strings"

	"github.com/oocsb/ibp/internal/bits"
	"github.com/oocsb/ibp/internal/table"
)

// Component is a predictor usable inside a hybrid: it exposes the confidence
// of its prediction so the metapredictor can choose between components
// (§6.1).
type Component interface {
	Predictor
	// PredictConf returns the component's prediction together with the
	// value of the predicting entry's confidence counter.
	PredictConf(pc uint32) (target uint32, conf uint8, ok bool)
}

// Hybrid combines two or more component predictors with per-entry confidence
// metaprediction (§6): on each access every component predicts, and the
// target with the highest confidence wins; ties are broken by component
// order (earlier components win). All components train on every branch.
//
// The paper evaluates two-component hybrids of equal table size and
// different path lengths; NewHybrid accepts any number of components, which
// also covers the three-component extension of §8.1.
type Hybrid struct {
	comps []Component
	name  string

	// Attribution recording (see core.Attributor); off by default. While
	// enabled, Predict keeps every component's prediction in the
	// preallocated attPred/attOK so Update can detect metapredictor
	// mis-steers (a non-chosen component that was right).
	attrib  bool
	att     AttribState
	attPred []uint32
	attOK   []bool
	// attComp is the chosen component's attribution view for the current
	// Predict→Update pair, fetched lazily in Attribution() so per-record
	// cost stays a pointer store (the component's own lazy work — pattern
	// hashing — then only happens for records someone asks about).
	attComp Attributor
}

// NewHybrid returns a hybrid over the given components, with earlier
// components winning confidence ties.
func NewHybrid(comps ...Component) (*Hybrid, error) {
	if len(comps) < 2 {
		return nil, fmt.Errorf("core: hybrid needs at least 2 components, got %d", len(comps))
	}
	names := make([]string, len(comps))
	for i, c := range comps {
		names[i] = c.Name()
	}
	return &Hybrid{comps: comps, name: "hybrid(" + strings.Join(names, "+") + ")"}, nil
}

// MustHybrid is NewHybrid for statically-known component lists.
func MustHybrid(comps ...Component) *Hybrid {
	h, err := NewHybrid(comps...)
	if err != nil {
		panic(err)
	}
	return h
}

// Vote is one component's output for one branch: its prediction and the
// confidence counter of the predicting entry.
type Vote struct {
	Target uint32
	Conf   uint8
	OK     bool
}

// Ballot is the §6.1 metaprediction over a branch's component votes, offered
// in component order: the target with the highest confidence wins and ties go
// to the earlier component. Hybrid.Predict and the batched simulator's
// shared-component lanes both arbitrate through it.
type Ballot struct {
	// Target is the winning prediction (zero while nothing has won).
	Target uint32
	// Chosen indexes the winning component, -1 while nothing has won.
	Chosen int
	conf   int
}

// NewBallot returns a ballot with no votes.
func NewBallot() Ballot { return Ballot{Chosen: -1, conf: -1} }

// Offer casts component i's vote.
func (b *Ballot) Offer(i int, v Vote) {
	if v.OK && int(v.Conf) > b.conf {
		b.Target, b.Chosen, b.conf = v.Target, i, int(v.Conf)
	}
}

// OK reports whether any component predicted.
func (b *Ballot) OK() bool { return b.Chosen >= 0 }

// Components returns the hybrid's components in tie-break order. The slice
// is the hybrid's own; callers must not modify it.
func (h *Hybrid) Components() []Component { return h.comps }

// Predict implements Predictor.
func (h *Hybrid) Predict(pc uint32) (uint32, bool) {
	b := NewBallot()
	for i, c := range h.comps {
		t, conf, ok := c.PredictConf(pc)
		if h.attrib {
			h.attPred[i], h.attOK[i] = t, ok
		}
		b.Offer(i, Vote{Target: t, Conf: conf, OK: ok})
	}
	if h.attrib {
		h.att = AttribState{Component: int16(b.Chosen)}
		h.attComp = nil
		if b.OK() {
			h.att.Conf = uint8(b.conf)
			h.att.TableHit = true
			if a, ok := h.comps[b.Chosen].(Attributor); ok {
				h.attComp = a
			}
		}
	}
	return b.Target, b.OK()
}

// Update implements Predictor: every component resolves the branch. With
// attribution enabled it additionally records whether a non-chosen component
// had the right target (the metapredictor mis-steer signal); how the chosen
// component's table moved is read lazily by Attribution.
func (h *Hybrid) Update(pc, target uint32) {
	for _, c := range h.comps {
		c.Update(pc, target)
	}
	if !h.attrib {
		return
	}
	chosen := int(h.att.Component)
	for i := range h.comps {
		if i != chosen && h.attOK[i] && h.attPred[i] == target {
			h.att.AltCorrect = true
			break
		}
	}
}

// SetAttribution implements Attributor, propagating to every component that
// records attribution itself.
func (h *Hybrid) SetAttribution(on bool) {
	h.attrib = on
	if on && h.attPred == nil {
		h.attPred = make([]uint32, len(h.comps))
		h.attOK = make([]bool, len(h.comps))
	}
	for _, c := range h.comps {
		if a, ok := c.(Attributor); ok {
			a.SetAttribution(on)
		}
	}
}

// Attribution implements Attributor. The chosen component's detail is
// merged here, lazily — its attribution state stays valid until the next
// Predict, so a caller asking right after Update sees the pair's view.
func (h *Hybrid) Attribution() AttribState {
	if h.attComp != nil {
		ca := h.attComp.Attribution()
		h.att.Pattern, h.att.TableHit = ca.Pattern, ca.TableHit
		h.att.NewEntry, h.att.Evicted = ca.NewEntry, ca.Evicted
		h.attComp = nil
	}
	return h.att
}

// Name implements Predictor.
func (h *Hybrid) Name() string { return h.name }

// Reset implements Resetter.
func (h *Hybrid) Reset() {
	for _, c := range h.comps {
		if r, ok := c.(Resetter); ok {
			r.Reset()
		}
	}
}

// TableStats implements TableStatser: the concatenation of every component's
// table stats, in component order.
func (h *Hybrid) TableStats() []table.Stats {
	var out []table.Stats
	for _, c := range h.comps {
		if ts, ok := c.(TableStatser); ok {
			out = append(out, ts.TableStats()...)
		}
	}
	return out
}

// DualPathComponent is the configuration of one NewDualPath component: a
// two-level predictor with path length p over a table of the given kind and
// size, with 2-bit confidence counters and the §4–§5 default key
// construction.
func DualPathComponent(p int, tableKind string, entries int) Config {
	return Config{
		PathLength: p,
		Precision:  AutoPrecision,
		Scheme:     defaultScheme(tableKind),
		TableKind:  tableKind,
		Entries:    entries,
	}
}

// NewDualPath builds the paper's canonical hybrid: two two-level components
// with path lengths p1 and p2, equal table kind and size (see
// DualPathComponent). The p1 component wins confidence ties.
func NewDualPath(p1, p2 int, tableKind string, entries int) (*Hybrid, error) {
	return NewDualPathSizes(p1, entries, p2, entries, tableKind)
}

// NewDualPathSizes is the §8.1 variant with unequal component sizes: the
// short-path component adapts fast and needs few entries, so most of the
// budget can go to the long-path component (or vice versa).
func NewDualPathSizes(p1, entries1, p2, entries2 int, tableKind string) (*Hybrid, error) {
	return NewTwoLevelHybrid(DualPathComponent(p1, tableKind, entries1), DualPathComponent(p2, tableKind, entries2))
}

// NewTwoLevelHybrid returns a hybrid over fresh two-level components with
// the given configurations, earlier components winning confidence ties.
func NewTwoLevelHybrid(cfgs ...Config) (*Hybrid, error) {
	comps := make([]Component, len(cfgs))
	for i, cfg := range cfgs {
		c, err := NewTwoLevel(cfg)
		if err != nil {
			return nil, err
		}
		comps[i] = c
	}
	return NewHybrid(comps...)
}

// defaultScheme picks the pattern layout the paper uses for each table
// organization: reverse interleaving for index-based tables, concatenation
// where there is no index to protect (§5.2.1 applies only to limited
// associativity).
func defaultScheme(tableKind string) bits.Scheme {
	switch tableKind {
	case "exact", "unbounded", "fullassoc":
		return bits.Concat
	}
	return bits.Reverse
}
