// Package freeq implements FreeQ — scaling interactive query construction
// to very large databases (Chapter 5).
//
// On a schema of thousands of tables, the attribute-level query
// construction options of IQP become uninformative: a keyword such as
// "london" can occur in hundreds of attributes, and each single-attribute
// question eliminates only a sliver of the interpretation space. FreeQ
// constructs an abstract ontology layer over the database schema
// (Section 5.5.1) and asks questions at the class level — "Is «london» a
// Person?" — so one answer eliminates whole schema regions. Accepting a
// class option descends into its subclasses; rejecting it prunes the
// entire subtree (the efficient traversal of very large query
// interpretation spaces, Section 5.6).
//
// The chapter's quantitative notions are reproduced as follows:
//
//   - QCO efficiency (Section 5.5.2): the expected fraction of the
//     interpretation-space probability eliminated by evaluating one
//     option. For an option whose acceptance probability is p the
//     expected eliminated mass is 2·p·(1−p), maximised by balanced
//     options — exactly what ontology classes provide over big flat
//     schemas (reconstruction; the thesis text of §5.5.2 is available
//     only in summary form, see DESIGN.md).
//   - Interaction cost and response time per construction step
//     (Figures 5.4 and 5.5) are measured by RunConstruction.
package freeq

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/ontology"
	"repro/internal/prob"
	"repro/internal/query"
)

// Config tunes a FreeQ session.
type Config struct {
	// StopAtRemaining ends construction when at most this many complete
	// interpretations remain (default 5, as in IQP).
	StopAtRemaining int
	// MaterializeAt materialises complete interpretations once the
	// product of per-keyword candidate-set sizes falls to this bound
	// (default 8): the incremental materialisation of Section 5.6.2.
	// While the space is larger, the session keeps asking class-level
	// QCOs; materialising too early degenerates FreeQ into attribute-
	// level IQP.
	MaterializeAt int
}

func (c *Config) defaults() {
	if c.StopAtRemaining <= 0 {
		c.StopAtRemaining = 5
	}
	if c.MaterializeAt <= 0 {
		c.MaterializeAt = 8
	}
}

// Option is a FreeQ query construction option. Class options group all
// interpretations of one keyword under an ontology class subtree
// ("Is «london» a person?"); attribute options are the IQP-style
// single-interpretation refinements used below class granularity.
type Option struct {
	// Pos and Keyword identify the keyword the option refines.
	Pos     int
	Keyword string
	// Class is the ontology class ID, or -1 for an attribute-level option.
	Class     int
	ClassName string
	// KIs are the keyword interpretations the option covers. The option
	// subsumes an interpretation iff the interpretation binds the keyword
	// to one of these (OR semantics, unlike the AND semantics of
	// query.Option).
	KIs []query.KeywordInterpretation
}

// Describe renders the option as the question shown to the user.
func (o Option) Describe() string {
	if o.Class >= 0 {
		return fmt.Sprintf("is %q a %s?", o.Keyword, o.ClassName)
	}
	if len(o.KIs) == 1 {
		return o.KIs[0].Describe()
	}
	return fmt.Sprintf("%q refines to one of %d attributes", o.Keyword, len(o.KIs))
}

// Covers reports whether the option covers the given keyword
// interpretation.
func (o Option) Covers(ki query.KeywordInterpretation) bool {
	if ki.Pos != o.Pos {
		return false
	}
	key := ki.Key()
	for _, c := range o.KIs {
		if c.Key() == key {
			return true
		}
	}
	return false
}

// SubsumesInterpretation reports whether the option subsumes a complete
// interpretation: the interpretation's binding for the option's keyword
// is covered.
func (o Option) SubsumesInterpretation(q *query.Interpretation) bool {
	for _, b := range q.Bindings {
		if b.KI.Pos == o.Pos {
			return o.Covers(*b.KI)
		}
	}
	return false
}

// Efficiency is the QCO efficiency measure of Section 5.5.2 as
// reconstructed above: the expected probability mass eliminated by
// evaluating an option with acceptance probability p.
func Efficiency(p float64) float64 { return 2 * p * (1 - p) }

// keywordState tracks the remaining interpretation candidates of one
// keyword and the ontology frontier still to be asked about.
type keywordState struct {
	pos     int
	keyword string
	// allowed is the surviving candidate set (keyed by KI key).
	allowed map[string]query.KeywordInterpretation
	// frontier holds the class IDs that may still be asked about.
	frontier []int
	// askedAttrs records attribute-level options already decided.
	askedAttrs map[string]bool
}

// Session is an interactive FreeQ construction over a very large schema.
type Session struct {
	scorer core.Scorer
	cands  *query.Candidates
	onto   *ontology.Ontology
	cfg    Config

	states []*keywordState
	// complete is non-nil once interpretations are materialised.
	complete []prob.Scored
	steps    int
	// stepTime accumulates option-generation time (Figure 5.5).
	stepTime time.Duration
	// coTables caches template co-occurrence for semi-join pruning.
	coTables map[string]map[string]bool
	// subtreeTables caches, per ontology class, the set of tables mapped
	// within its subtree.
	subtreeTables map[int]map[string]bool
}

// NewSessionContext starts a FreeQ session. The ontology must have
// database tables mapped to its classes (MapTables / the YAGO+F
// structure). The initial pruning/materialisation work honours the
// context.
func NewSessionContext(ctx context.Context, scorer core.Scorer, cands *query.Candidates, onto *ontology.Ontology, cfg Config) (*Session, error) {
	cfg.defaults()
	matched := cands.MatchedPositions()
	if len(matched) == 0 {
		return nil, fmt.Errorf("freeq: no keyword of the query matches the database")
	}
	s := &Session{scorer: scorer, cands: cands, onto: onto, cfg: cfg}
	for _, pos := range matched {
		st := &keywordState{
			pos:        pos,
			keyword:    cands.Keywords[pos],
			allowed:    make(map[string]query.KeywordInterpretation),
			askedAttrs: make(map[string]bool),
		}
		for _, ki := range cands.PerKeyword[pos] {
			st.allowed[ki.Key()] = ki
		}
		st.frontier = onto.Children(onto.Root())
		s.states = append(s.states, st)
	}
	s.buildCoTables()
	s.prune()
	if err := s.maybeMaterialize(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// buildCoTables precomputes, per table, the set of tables co-occurring
// with it in at least one template. This powers the semi-join pruning of
// the interpretation space (the efficient hierarchy traversal of
// Section 5.6.2): a keyword interpretation is only viable if every other
// keyword can be bound within a template that also covers its table.
func (s *Session) buildCoTables() {
	s.coTables = make(map[string]map[string]bool)
	for _, tpl := range s.scorer.Catalog().Templates {
		for _, a := range tpl.Tree.Tables {
			set := s.coTables[a]
			if set == nil {
				set = make(map[string]bool)
				s.coTables[a] = set
			}
			for _, b := range tpl.Tree.Tables {
				set[b] = true
			}
		}
	}
}

// prune removes keyword interpretations that cannot participate in any
// complete interpretation given the other keywords' surviving candidates
// (pairwise template-compatibility approximation), iterating to a
// fixpoint. It never removes the last candidate of a keyword. Feasibility
// is tested against each other keyword's *table set* through the
// (typically tiny) co-template set of the candidate's table, keeping the
// pass linear in the candidate counts on hub-and-spoke schemas.
func (s *Session) prune() {
	if len(s.states) < 2 {
		return
	}
	changed := true
	for changed {
		changed = false
		// Current table sets per keyword state.
		tablesOf := make([]map[string]bool, len(s.states))
		for i, st := range s.states {
			set := make(map[string]bool, len(st.allowed))
			for _, ki := range st.allowed {
				set[ki.TargetTable()] = true
			}
			tablesOf[i] = set
		}
		for si, st := range s.states {
			if len(st.allowed) <= 1 {
				continue
			}
			for _, k := range sortedKeys(st.allowed) {
				ki := st.allowed[k]
				co := s.coTables[ki.TargetTable()]
				ok := true
				for sj, other := range s.states {
					if other == st {
						continue
					}
					feasible := false
					if len(co) <= len(tablesOf[sj]) {
						for t := range co {
							if tablesOf[sj][t] {
								feasible = true
								break
							}
						}
					} else {
						for t := range tablesOf[sj] {
							if co[t] {
								feasible = true
								break
							}
						}
					}
					if !feasible {
						ok = false
						break
					}
				}
				if !ok && len(st.allowed) > 1 {
					delete(st.allowed, k)
					tablesOf[si] = nil // invalidated; rebuilt next round
					changed = true
				}
			}
			if tablesOf[si] == nil {
				break // rebuild table sets before continuing
			}
		}
	}
}

// Steps returns the number of options evaluated so far.
func (s *Session) Steps() int { return s.steps }

// StepTime returns the cumulative option-generation time.
func (s *Session) StepTime() time.Duration { return s.stepTime }

// SpaceSize returns the product of the surviving per-keyword candidate
// set sizes (the incremental bound of Section 5.6.2), saturating.
func (s *Session) SpaceSize() int {
	const cap = int(^uint(0)>>1) / 2
	size := 1
	for _, st := range s.states {
		n := len(st.allowed)
		if n == 0 {
			return 0
		}
		if size > cap/n {
			return cap
		}
		size *= n
	}
	return size
}

// classKIs returns the allowed interpretations of the keyword that fall
// under the class's subtree (tables mapped to the subtree). Subtree table
// sets are cached per class.
func (s *Session) classKIs(st *keywordState, class int) []query.KeywordInterpretation {
	if s.subtreeTables == nil {
		s.subtreeTables = make(map[int]map[string]bool)
	}
	tables, ok := s.subtreeTables[class]
	if !ok {
		tables = make(map[string]bool)
		for _, t := range s.onto.TablesBelow(class) {
			tables[t] = true
		}
		s.subtreeTables[class] = tables
	}
	var out []query.KeywordInterpretation
	for _, k := range sortedKeys(st.allowed) {
		ki := st.allowed[k]
		if tables[ki.TargetTable()] {
			out = append(out, ki)
		}
	}
	return out
}

// keywordMass returns the total probability mass of the keyword's allowed
// interpretations and a per-key mass lookup.
func (s *Session) keywordMass(st *keywordState) (float64, map[string]float64) {
	total := 0.0
	mass := make(map[string]float64, len(st.allowed))
	for k, ki := range st.allowed {
		m := s.scorer.KeywordProb(ki)
		mass[k] = m
		total += m
	}
	return total, mass
}

// NextOption proposes the most efficient undecided option across
// keywords: class options from the ontology frontiers first, attribute
// options when class granularity is exhausted. ok=false means nothing
// can split the space further.
func (s *Session) NextOption() (Option, bool) {
	start := time.Now()
	defer func() { s.stepTime += time.Since(start) }()
	if s.complete != nil {
		return s.completeLevelOption()
	}
	var best Option
	bestEff := -1.0
	for _, st := range s.states {
		if len(st.allowed) <= 1 {
			continue
		}
		total, mass := s.keywordMass(st)
		if total <= 0 {
			continue
		}
		// Class options over the current frontier.
		for _, class := range st.frontier {
			kis := s.classKIs(st, class)
			if len(kis) == 0 || len(kis) == len(st.allowed) {
				continue // does not split this keyword's candidates
			}
			p := 0.0
			for _, ki := range kis {
				p += mass[ki.Key()]
			}
			p /= total
			if eff := Efficiency(p); eff > bestEff {
				c, _ := s.onto.Class(class)
				bestEff = eff
				best = Option{Pos: st.pos, Keyword: st.keyword, Class: class,
					ClassName: c.Name, KIs: kis}
			}
		}
		// Attribute-level options.
		for _, k := range sortedKeys(st.allowed) {
			if st.askedAttrs[k] {
				continue
			}
			ki := st.allowed[k]
			p := mass[k] / total
			if p >= 1 {
				continue
			}
			if eff := Efficiency(p); eff > bestEff {
				bestEff = eff
				best = Option{Pos: st.pos, Keyword: st.keyword, Class: -1,
					KIs: []query.KeywordInterpretation{ki}}
			}
		}
	}
	if bestEff < 0 {
		return Option{}, false
	}
	return best, true
}

// completeLevelOption refines among materialised interpretations with
// attribute-level options (the final IQP-style stage).
func (s *Session) completeLevelOption() (Option, bool) {
	type agg struct {
		ki   query.KeywordInterpretation
		mass float64
	}
	total := 0.0
	byKey := make(map[string]*agg)
	for _, sc := range s.complete {
		total += sc.Score
		for _, b := range sc.Q.Bindings {
			a := byKey[b.KI.Key()]
			if a == nil {
				a = &agg{ki: *b.KI}
				byKey[b.KI.Key()] = a
			}
			a.mass += sc.Score
		}
	}
	if total <= 0 {
		return Option{}, false
	}
	var best Option
	bestEff := -1.0
	for _, k := range sortedAggKeys(byKey) {
		a := byKey[k]
		st := s.stateOf(a.ki.Pos)
		if st != nil && st.askedAttrs[k] {
			continue
		}
		p := a.mass / total
		if p <= 0 || p >= 1 {
			continue
		}
		if eff := Efficiency(p); eff > bestEff {
			bestEff = eff
			best = Option{Pos: a.ki.Pos, Keyword: a.ki.Keyword, Class: -1,
				KIs: []query.KeywordInterpretation{a.ki}}
		}
	}
	if bestEff < 0 {
		return Option{}, false
	}
	return best, true
}

func (s *Session) stateOf(pos int) *keywordState {
	for _, st := range s.states {
		if st.pos == pos {
			return st
		}
	}
	return nil
}

// AcceptContext narrows the keyword to the option's coverage; for class
// options the ontology frontier descends into the class's children. The
// materialisation the decision may trigger honours the context.
func (s *Session) AcceptContext(ctx context.Context, o Option) error {
	s.steps++
	st := s.stateOf(o.Pos)
	if st == nil {
		return nil
	}
	covered := make(map[string]bool, len(o.KIs))
	for _, ki := range o.KIs {
		covered[ki.Key()] = true
	}
	for k := range st.allowed {
		if !covered[k] {
			delete(st.allowed, k)
		}
	}
	if o.Class >= 0 {
		st.frontier = s.onto.Children(o.Class)
	} else if len(o.KIs) == 1 {
		st.askedAttrs[o.KIs[0].Key()] = true
	}
	s.prune()
	s.applyToComplete(o, true)
	return s.maybeMaterialize(ctx)
}

// RejectContext removes the option's coverage; for class options the
// whole subtree is pruned from the frontier. The materialisation the
// decision may trigger honours the context.
func (s *Session) RejectContext(ctx context.Context, o Option) error {
	s.steps++
	st := s.stateOf(o.Pos)
	if st == nil {
		return nil
	}
	for _, ki := range o.KIs {
		delete(st.allowed, ki.Key())
	}
	if o.Class >= 0 {
		var kept []int
		for _, c := range st.frontier {
			if c != o.Class {
				kept = append(kept, c)
			}
		}
		st.frontier = kept
	} else if len(o.KIs) == 1 {
		st.askedAttrs[o.KIs[0].Key()] = true
	}
	s.prune()
	s.applyToComplete(o, false)
	return s.maybeMaterialize(ctx)
}

func (s *Session) applyToComplete(o Option, accepted bool) {
	if s.complete == nil {
		return
	}
	var kept []prob.Scored
	for _, sc := range s.complete {
		if o.SubsumesInterpretation(sc.Q) == accepted {
			kept = append(kept, sc)
		}
	}
	s.complete = kept
}

// maybeMaterialize materialises complete interpretations once the
// candidate product is small enough, honouring context cancellation.
func (s *Session) maybeMaterialize(ctx context.Context) error {
	if s.complete != nil {
		return nil
	}
	if s.SpaceSize() > s.cfg.MaterializeAt {
		return nil
	}
	start := time.Now()
	// Cartesian product of per-keyword allowed sets.
	tuples := [][]query.KeywordInterpretation{nil}
	for _, st := range s.states {
		keys := sortedKeys(st.allowed)
		var next [][]query.KeywordInterpretation
		for _, t := range tuples {
			for _, k := range keys {
				nt := make([]query.KeywordInterpretation, len(t)+1)
				copy(nt, t)
				nt[len(t)] = st.allowed[k]
				next = append(next, nt)
			}
		}
		tuples = next
	}
	complete, err := core.MaterializeInterpretationsContext(ctx, s.scorer, s.cands.Keywords, tuples)
	if err != nil {
		return err
	}
	s.complete = complete
	s.stepTime += time.Since(start)
	return nil
}

// Done reports whether construction has finished.
func (s *Session) Done() bool {
	return s.complete != nil && len(s.complete) <= s.cfg.StopAtRemaining
}

// Remaining returns the materialised interpretations (empty before
// materialisation).
func (s *Session) Remaining() []prob.Scored {
	out := make([]prob.Scored, len(s.complete))
	copy(out, s.complete)
	return out
}

// Result reports one FreeQ construction run.
type Result struct {
	Steps         int
	RemainingRank int
	Remaining     int
	// StepTime is the cumulative system-side time; divide by Steps for the
	// per-step response time of Figure 5.5.
	StepTime time.Duration
}

// RunConstruction drives the session against the intent oracle: the user
// accepts an option iff it covers the intended interpretation's binding
// for the option's keyword. It returns the first error an answer's
// materialisation returns.
func RunConstruction(ctx context.Context, s *Session, intended *query.Interpretation) (Result, error) {
	var res Result
	for !s.Done() {
		o, ok := s.NextOption()
		if !ok {
			break
		}
		var err error
		if accepts(intended, o) {
			err = s.AcceptContext(ctx, o)
		} else {
			err = s.RejectContext(ctx, o)
		}
		if err != nil {
			return res, err
		}
	}
	res.Steps = s.Steps()
	res.StepTime = s.StepTime()
	remaining := s.Remaining()
	res.Remaining = len(remaining)
	key := intended.Key()
	for i, sc := range remaining {
		if sc.Q.Key() == key {
			res.RemainingRank = i + 1
			break
		}
	}
	if res.RemainingRank == 0 {
		return res, fmt.Errorf("freeq: intended interpretation lost during construction")
	}
	return res, nil
}

func accepts(intended *query.Interpretation, o Option) bool {
	for _, b := range intended.Bindings {
		if b.KI.Pos == o.Pos {
			return o.Covers(*b.KI)
		}
	}
	return false
}

// MapConceptTables maps every table to its concept class in the ontology
// ("wordnet_<concept>"), building the FreeQ schema layer from the
// generator's ground truth or from a YAGO+F matching (Chapter 6). Tables
// whose class is missing are left unmapped (reachable only through
// attribute-level options).
func MapConceptTables(onto *ontology.Ontology, conceptOf map[string]string) int {
	mapped := 0
	tables := make([]string, 0, len(conceptOf))
	for t := range conceptOf {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, table := range tables {
		if id, ok := onto.ByName("wordnet_" + conceptOf[table]); ok {
			onto.MapTable(id, table)
			mapped++
		}
	}
	return mapped
}

func sortedKeys(m map[string]query.KeywordInterpretation) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedAggKeys[T any](m map[string]*T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
