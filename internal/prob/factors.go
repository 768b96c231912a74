package prob

import (
	"sync"

	"repro/internal/query"
)

// factors is the request-scoped memo of one RankContext call. Each
// factor of Score is read once per call: the template prior once per
// template, each candidate's keyword probability once, and each value
// group's joint probability once per distinct (attribute, keyword bag).
// The model's shared score cache still computes and stores every value,
// so later calls on the model read the same entries; the memo spares
// the shared cache's lookups, which hash the attribute and the keyword
// bag on every read.
//
// A candidate is identified by its pointer: generation points every
// binding of a call into the request's candidate list. Bindings are
// sorted by position, so a group's first candidate and the set of its
// keyword positions fix the group's attribute and its keyword bag in
// binding order.
type factors struct {
	m *Model
	// The last template scored and its prior. A generated space holds
	// each template's interpretations in one run.
	tpl   *query.Template
	prior float64
	// index numbers the candidates seen; cands[index[ki]] holds ki's
	// factors and joints the groups' joint probabilities.
	index  map[*query.KeywordInterpretation]int32
	cands  []candidate
	joints []joint
}

// candidate holds the factors of one candidate.
type candidate struct {
	kw    float64
	hasKW bool
	joint int32 // joints of the groups it opens, linked through joint.next; -1 for none
}

// joint is the joint probability of one value group.
type joint struct {
	pos  uint64 // the group's keyword positions, one bit each
	p    float64
	next int32
}

// maxPooledCandidates bounds the memo kept for reuse: one grown past it
// by an unusually wide request is dropped.
const maxPooledCandidates = 1024

var factorsPool = sync.Pool{New: func() any { return newMemo() }}

func newMemo() *factors {
	return &factors{index: make(map[*query.KeywordInterpretation]int32)}
}

func newFactors(m *Model) *factors {
	f := factorsPool.Get().(*factors)
	f.m = m
	return f
}

// release empties f and returns it to the pool.
func (f *factors) release() {
	if f.reset() {
		factorsPool.Put(f)
	}
}

// reset empties f for reuse, reporting false when it grew too wide to
// keep.
func (f *factors) reset() bool {
	if len(f.cands) > maxPooledCandidates {
		return false
	}
	clear(f.index)
	*f = factors{index: f.index, cands: f.cands[:0], joints: f.joints[:0]}
	return true
}

// score is Model.Score over the memoised factors, multiplied in the same
// order: prior × value factors × schema-term factors × Pu per unmapped
// keyword.
func (f *factors) score(q *query.Interpretation) float64 {
	score := 1.0
	if q.Template != nil {
		if q.Template != f.tpl {
			f.tpl, f.prior = q.Template, f.m.TemplatePrior(q.Template)
		}
		score *= f.prior
	}
	if f.m.cfg.UseCoOccurrence {
		score *= f.groupedValueProb(q)
	} else {
		for _, b := range q.Bindings {
			if b.KI.Kind == query.KindValue {
				score *= f.keywordProb(b.KI)
			}
		}
	}
	for _, b := range q.Bindings {
		if b.KI.Kind != query.KindValue {
			score *= f.keywordProb(b.KI)
		}
	}
	unmapped := len(q.Keywords) - len(q.Bindings)
	for i := 0; i < unmapped; i++ {
		score *= f.m.pu
	}
	return score
}

// candidate returns ki's entry, numbering ki on first sight. The pointer
// is valid until the next new candidate.
func (f *factors) candidate(ki *query.KeywordInterpretation) *candidate {
	i, ok := f.index[ki]
	if !ok {
		i = int32(len(f.cands))
		f.cands = append(f.cands, candidate{joint: -1})
		f.index[ki] = i
	}
	return &f.cands[i]
}

func (f *factors) keywordProb(ki *query.KeywordInterpretation) float64 {
	c := f.candidate(ki)
	if !c.hasKW {
		c.kw, c.hasKW = f.m.KeywordProb(*ki), true
	}
	return c.kw
}

// groupedValueProb is Model.groupedValueProb over the memoised joint
// probabilities: the groups per (occurrence, attribute) in the order of
// their first bindings. A keyword position past 63 does not fit a
// group's position set, so such an interpretation is scored by the
// model directly.
func (f *factors) groupedValueProb(q *query.Interpretation) float64 {
	type group struct {
		occ   int
		first *query.KeywordInterpretation
		pos   uint64
	}
	var buf [8]group
	groups := buf[:0]
	for _, b := range q.Bindings {
		if b.KI.Kind != query.KindValue {
			continue
		}
		if uint(b.KI.Pos) >= 64 {
			return f.m.groupedValueProb(q)
		}
		k := 0
		for k < len(groups) && (groups[k].occ != b.Occ || groups[k].first.Attr != b.KI.Attr) {
			k++
		}
		if k == len(groups) {
			groups = append(groups, group{occ: b.Occ, first: b.KI})
		}
		groups[k].pos |= 1 << b.KI.Pos
	}
	p := 1.0
	for _, g := range groups {
		p *= f.jointProb(q, g.occ, g.first, g.pos)
	}
	return p
}

// jointProb returns the joint probability of q's value group at occ
// that first binds first and binds the keyword positions pos.
func (f *factors) jointProb(q *query.Interpretation, occ int, first *query.KeywordInterpretation, pos uint64) float64 {
	c := f.candidate(first)
	for j := c.joint; j >= 0; j = f.joints[j].next {
		if f.joints[j].pos == pos {
			return f.joints[j].p
		}
	}
	var buf [8]string
	kws := buf[:0]
	for _, b := range q.Bindings {
		if b.KI.Kind == query.KindValue && b.Occ == occ && b.KI.Attr == first.Attr {
			kws = append(kws, b.KI.Keyword)
		}
	}
	p := f.m.jointValueProb(kws, first.Attr)
	f.joints = append(f.joints, joint{pos: pos, p: p, next: c.joint})
	c.joint = int32(len(f.joints) - 1)
	return p
}
