package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/prob"
	"repro/internal/query"
)

// Scorer abstracts the probability source of a construction session. The
// production implementation is prob.Model (ATF + template priors,
// Section 3.6); the scalability simulation of Section 3.8.5 substitutes
// randomly assigned probabilities.
type Scorer interface {
	// KeywordProb returns P(Ai:ki | T∩Ai) for a keyword interpretation.
	KeywordProb(ki query.KeywordInterpretation) float64
	// RankContext scores complete interpretations into a normalised
	// ranking, aborting with ctx's error once ctx is done.
	RankContext(ctx context.Context, space []*query.Interpretation) ([]prob.Scored, error)
	// Catalog returns the template catalogue.
	Catalog() *query.Catalog
}

// statically assert that the production model satisfies Scorer.
var _ Scorer = (*prob.Model)(nil)

// SessionConfig tunes the greedy construction session (Algorithm 3.2).
type SessionConfig struct {
	// Threshold is the greedy algorithm's hierarchy-expansion threshold T:
	// the top level is expanded while it holds fewer than Threshold
	// entries (default 20, the knee observed in Tables 3.2/3.3).
	Threshold int
	// StopAtRemaining ends construction when at most this many complete
	// interpretations remain: the user identifies the intended one in the
	// query window (Section 3.8.2 uses 5). Default 5.
	StopAtRemaining int
	// OptionPolicy selects how the next option is chosen; default
	// PolicyInformationGain. PolicyProbability is the ablation that picks
	// the most probable undecided option instead.
	OptionPolicy OptionPolicy
}

// OptionPolicy selects the query-construction-option scoring rule.
type OptionPolicy int

const (
	// PolicyInformationGain picks the option with maximum information
	// gain (Section 3.7.3) — the IQP policy.
	PolicyInformationGain OptionPolicy = iota
	// PolicyProbability picks the undecided option with the highest
	// subsumed probability mass — the ablation baseline.
	PolicyProbability
)

// partial is one entry of the current top level of the query hierarchy: a
// set of keyword bindings (without template) for the first `level` matched
// keywords, scored by the probabilistic model.
type partial struct {
	kis   []query.KeywordInterpretation
	score float64
}

// Session is an interactive incremental query construction (one user, one
// keyword query). It maintains the query hierarchy lazily: the top level
// TQ starts at the smallest partial interpretations and is expanded
// keyword by keyword while it stays below the threshold; user decisions on
// options shrink it (Algorithm 3.2).
type Session struct {
	scorer Scorer
	cands  *query.Candidates
	cfg    SessionConfig

	// matched keyword positions in expansion order.
	order []int
	// level = number of matched keywords expanded so far.
	level int
	// top is TQ while incomplete (binding sets without templates).
	top []partial
	// complete is the materialised, filtered complete-interpretation set
	// once the hierarchy is fully expanded (nil before).
	complete []prob.Scored

	// accepted maps keyword position -> forced interpretation key;
	// rejected holds banned interpretation keys.
	accepted map[int]string
	rejected map[string]bool

	steps int
}

// NewSessionContext starts a construction session for the keyword query
// whose candidates have been generated against the model's index. The
// initial hierarchy expansion (which may materialise the complete
// interpretation space) honours the context.
func NewSessionContext(ctx context.Context, scorer Scorer, cands *query.Candidates, cfg SessionConfig) (*Session, error) {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 20
	}
	if cfg.StopAtRemaining <= 0 {
		cfg.StopAtRemaining = 5
	}
	matched := cands.MatchedPositions()
	if len(matched) == 0 {
		return nil, fmt.Errorf("core: no keyword of the query matches the database")
	}
	s := &Session{
		scorer:   scorer,
		cands:    cands,
		cfg:      cfg,
		order:    matched,
		accepted: make(map[int]string),
		rejected: make(map[string]bool),
	}
	s.top = []partial{{kis: nil, score: 1}}
	if err := s.expandWhileSmall(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// Steps returns the number of options the user has evaluated so far — the
// interaction cost of Definition 3.5.9.
func (s *Session) Steps() int { return s.steps }

// fullyExpanded reports whether the hierarchy has reached complete
// interpretations.
func (s *Session) fullyExpanded() bool { return s.complete != nil }

// consistentKI reports whether a keyword interpretation is allowed under
// the user's decisions so far.
func (s *Session) consistentKI(ki query.KeywordInterpretation) bool {
	if s.rejected[ki.Key()] {
		return false
	}
	if forced, ok := s.accepted[ki.Pos]; ok && forced != ki.Key() {
		return false
	}
	return true
}

// expandWhileSmall implements the expansion loop of Algorithm 3.2: while
// the top level holds fewer than Threshold entries and can be expanded,
// expand it by one keyword; the final expansion attaches templates and
// materialises complete interpretations.
func (s *Session) expandWhileSmall(ctx context.Context) error {
	for !s.fullyExpanded() && len(s.top) < s.cfg.Threshold {
		if err := ctx.Err(); err != nil {
			return err
		}
		if s.level < len(s.order) {
			s.expandOneKeyword()
		}
		if s.level == len(s.order) {
			return s.materializeComplete(ctx)
		}
	}
	return nil
}

// expandOneKeyword expands the top level by the next matched keyword.
func (s *Session) expandOneKeyword() {
	pos := s.order[s.level]
	var next []partial
	for _, p := range s.top {
		for _, ki := range s.cands.PerKeyword[pos] {
			if !s.consistentKI(ki) {
				continue
			}
			kis := make([]query.KeywordInterpretation, len(p.kis)+1)
			copy(kis, p.kis)
			kis[len(p.kis)] = ki
			next = append(next, partial{kis: kis, score: p.score * s.scorer.KeywordProb(ki)})
		}
	}
	s.level++
	s.top = next
	s.sortTop()
}

// materializeComplete attaches compatible templates to every surviving
// binding combination, producing the filtered complete interpretation set.
func (s *Session) materializeComplete(ctx context.Context) error {
	tuples := make([][]query.KeywordInterpretation, len(s.top))
	for i, p := range s.top {
		tuples[i] = p.kis
	}
	complete, err := MaterializeInterpretationsContext(ctx, s.scorer, s.cands.Keywords, tuples)
	if err != nil {
		return err
	}
	s.complete = complete
	s.top = nil
	return nil
}

// MaterializeInterpretationsContext returns the ranked complete
// interpretations of the keyword-interpretation tuples: the final
// expansion step of the query hierarchy, shared by the IQP session and
// the FreeQ session. Each tuple goes to query.GenerateCompleteContext on
// its own, as candidates with one interpretation per matched keyword,
// so the space holds the tuples' minimal interpretations tuple by tuple.
// One call per tuple, not one over their product: RankContext sums the
// normalising total in input order, and the product's template-major
// order would change probabilities in their last bit. The context is
// checked by every generation call and by the ranking.
func MaterializeInterpretationsContext(ctx context.Context, scorer Scorer, keywords []string, tuples [][]query.KeywordInterpretation) ([]prob.Scored, error) {
	cat := scorer.Catalog()
	c := &query.Candidates{Keywords: keywords, PerKeyword: make([][]query.KeywordInterpretation, len(keywords))}
	var space []*query.Interpretation
	for _, kis := range tuples {
		clear(c.PerKeyword)
		for i := range kis {
			c.PerKeyword[kis[i].Pos] = kis[i : i+1]
		}
		qs, err := query.GenerateCompleteContext(ctx, c, cat, query.GenerateConfig{})
		if err != nil {
			return nil, err
		}
		space = append(space, qs...)
	}
	return scorer.RankContext(ctx, space)
}

func (s *Session) sortTop() {
	sort.Slice(s.top, func(i, j int) bool {
		if s.top[i].score != s.top[j].score {
			return s.top[i].score > s.top[j].score
		}
		return partialKey(s.top[i]) < partialKey(s.top[j])
	})
}

func partialKey(p partial) string {
	k := ""
	for _, ki := range p.kis {
		k += ki.Key() + ";"
	}
	return k
}

// Done reports whether construction has finished: the hierarchy is fully
// expanded and at most StopAtRemaining complete interpretations remain.
func (s *Session) Done() bool {
	return s.fullyExpanded() && len(s.complete) <= s.cfg.StopAtRemaining
}

// Remaining returns the currently consistent complete interpretations,
// ranked; empty until the hierarchy is fully expanded.
func (s *Session) Remaining() []prob.Scored {
	out := make([]prob.Scored, len(s.complete))
	copy(out, s.complete)
	return out
}

// optionBucket accumulates, per candidate option (keyword
// interpretation), the statistics of the subsumed subset of the top
// level: count, probability mass S1 = Σw, and S2 = Σ w·log2(w). The
// branch entropy follows as H = log2(S1) − S2/S1, so information gain is
// computable from one pass over the top level instead of one pass per
// option (the per-step cost drops from O(#options·#top) to
// O(#top·#keywords + #options), which keeps long constructions over wide
// schemas tractable).
type optionBucket struct {
	ki    query.KeywordInterpretation
	n     int
	s1    float64
	s2    float64
	valid bool
}

// NextOption returns the best undecided query construction option under
// the configured policy, or ok=false when no option can split the current
// top level (the user must pick from Remaining).
func (s *Session) NextOption() (query.Option, bool) {
	buckets := make(map[string]*optionBucket)
	undecided := func(ki query.KeywordInterpretation) bool {
		if _, ok := s.accepted[ki.Pos]; ok {
			return false
		}
		return !s.rejected[ki.Key()]
	}
	addEntry := func(weight float64, kis []query.KeywordInterpretation) {
		if weight <= 0 {
			return
		}
		wlog := weight * math.Log2(weight)
		seen := make(map[string]bool, len(kis))
		for _, ki := range kis {
			if !undecided(ki) {
				continue
			}
			key := ki.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			b := buckets[key]
			if b == nil {
				b = &optionBucket{ki: ki, valid: true}
				buckets[key] = b
			}
			b.n++
			b.s1 += weight
			b.s2 += wlog
		}
	}
	total := 0.0
	totalLog := 0.0
	count := 0
	if s.fullyExpanded() {
		kis := make([]query.KeywordInterpretation, 0, 8)
		for _, sc := range s.complete {
			kis = kis[:0]
			for _, b := range sc.Q.Bindings {
				kis = append(kis, *b.KI)
			}
			addEntry(sc.Score, kis)
			if sc.Score > 0 {
				total += sc.Score
				totalLog += sc.Score * math.Log2(sc.Score)
			}
			count++
		}
	} else {
		for _, p := range s.top {
			addEntry(p.score, p.kis)
			if p.score > 0 {
				total += p.score
				totalLog += p.score * math.Log2(p.score)
			}
			count++
		}
	}
	if total <= 0 || len(buckets) == 0 {
		return query.Option{}, false
	}
	entropy := func(s1, s2 float64) float64 {
		if s1 <= 0 {
			return 0
		}
		return math.Log2(s1) - s2/s1
	}
	var bestKey string
	var bestKI query.KeywordInterpretation
	bestScore := math.Inf(-1)
	found := false
	for key, b := range buckets {
		if b.n == 0 || b.n == count || b.s1 >= total {
			continue // does not split the top level
		}
		var score float64
		switch s.cfg.OptionPolicy {
		case PolicyProbability:
			score = b.s1
		default:
			pin := b.s1 / total
			cond := pin*entropy(b.s1, b.s2) + (1-pin)*entropy(total-b.s1, totalLog-b.s2)
			score = entropy(total, totalLog) - cond
		}
		if score > bestScore || (score == bestScore && (!found || key < bestKey)) {
			bestScore = score
			bestKey = key
			bestKI = b.ki
			found = true
		}
	}
	if !found {
		return query.Option{}, false
	}
	return query.NewOption(bestKI), true
}

// AcceptContext records that the option is a sub-query of the intended
// interpretation and shrinks the space accordingly; the hierarchy
// expansion the decision may trigger honours the context.
func (s *Session) AcceptContext(ctx context.Context, o query.Option) error {
	s.steps++
	for _, ki := range o.KIs {
		s.accepted[ki.Pos] = ki.Key()
	}
	s.filter()
	return s.expandWhileSmall(ctx)
}

// RejectContext records that the option is not part of the intended
// interpretation; the hierarchy expansion the decision may trigger
// honours the context.
func (s *Session) RejectContext(ctx context.Context, o query.Option) error {
	s.steps++
	for _, ki := range o.KIs {
		s.rejected[ki.Key()] = true
	}
	s.filter()
	return s.expandWhileSmall(ctx)
}

// filter removes top-level entries inconsistent with the decisions.
func (s *Session) filter() {
	if s.fullyExpanded() {
		var kept []prob.Scored
		for _, sc := range s.complete {
			if s.consistentInterp(sc.Q) {
				kept = append(kept, sc)
			}
		}
		s.complete = kept
		return
	}
	var kept []partial
	for _, p := range s.top {
		ok := true
		for _, ki := range p.kis {
			if !s.consistentKI(ki) {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, p)
		}
	}
	s.top = kept
}

func (s *Session) consistentInterp(q *query.Interpretation) bool {
	for _, b := range q.Bindings {
		if !s.consistentKI(*b.KI) {
			return false
		}
	}
	// Every accepted keyword must actually be bound to the accepted
	// interpretation in a complete interpretation.
	for pos, key := range s.accepted {
		found := false
		for _, b := range q.Bindings {
			if b.KI.Pos == pos && b.KI.Key() == key {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
