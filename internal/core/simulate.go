package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/invindex"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/schemagraph"
)

// SimConfig parameterises the synthetic scalability simulation of
// Section 3.8.5: a random connected schema graph, random query templates
// (connected sub-graphs), keywords occurring in each table with a fixed
// probability, and random probabilities assigned to each keyword
// occurrence.
type SimConfig struct {
	// Tables is the number of tables in the random schema (5–80 in
	// Table 3.2).
	Tables int
	// Keywords is the keyword-query length (2–10 in Table 3.3).
	Keywords int
	// KeywordTableProb is the probability that a keyword occurs in a
	// table (60% in the thesis's experiments).
	KeywordTableProb float64
	// Templates caps the number of query templates enumerated from the
	// random schema (templates are all join trees up to MaxTemplateSize,
	// so the catalogue grows with the schema as in Table 3.2; the cap is a
	// safety bound, default 50000).
	Templates int
	// MaxTemplateSize bounds template join-path length (4 in §3.8.1).
	MaxTemplateSize int
	// Threshold is the greedy algorithm's expansion threshold (10/20/30).
	Threshold int
	// StopAtRemaining is the construction stop criterion (default 5).
	StopAtRemaining int
	// Seed drives the deterministic PRNG.
	Seed int64
}

func (c *SimConfig) defaults() {
	if c.Tables <= 0 {
		c.Tables = 10
	}
	if c.Keywords <= 0 {
		c.Keywords = 3
	}
	if c.KeywordTableProb <= 0 {
		c.KeywordTableProb = 0.6
	}
	if c.Templates <= 0 {
		c.Templates = 50000
	}
	if c.MaxTemplateSize <= 0 {
		c.MaxTemplateSize = 4
	}
	if c.Threshold <= 0 {
		c.Threshold = 20
	}
	if c.StopAtRemaining <= 0 {
		c.StopAtRemaining = 5
	}
}

// SimResult reports one simulated construction run.
type SimResult struct {
	// Interpretations is the size of the keyword query's interpretation
	// space (binding combinations compatible with the templates), computed
	// analytically without materialisation.
	Interpretations int
	// Steps is the number of options the simulated user evaluated.
	Steps int
	// TimePerStep is the average computation time to generate one option.
	TimePerStep time.Duration
}

// randScorer assigns a random probability to every keyword occurrence and
// a uniform prior to templates — the probability model of the simulation.
type randScorer struct {
	probs map[string]float64
	cat   *query.Catalog
}

func (r *randScorer) KeywordProb(ki query.KeywordInterpretation) float64 {
	if p, ok := r.probs[ki.Key()]; ok {
		return p
	}
	return 1e-9
}

func (r *randScorer) Catalog() *query.Catalog { return r.cat }

func (r *randScorer) RankContext(ctx context.Context, space []*query.Interpretation) ([]prob.Scored, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]prob.Scored, len(space))
	total := 0.0
	tplPrior := 1.0
	if n := len(r.cat.Templates); n > 0 {
		tplPrior = 1 / float64(n)
	}
	for i, q := range space {
		s := tplPrior
		for _, b := range q.Bindings {
			s *= r.KeywordProb(*b.KI)
		}
		out[i] = prob.Scored{Q: q, Score: s}
		total += s
	}
	if total > 0 {
		for i := range out {
			out[i].Prob = out[i].Score / total
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return query.CompareKey(out[i].Q, out[j].Q) < 0
	})
	return out, nil
}

// RunSimulation builds one random configuration per SimConfig, picks a
// random intended structured query, and simulates its construction,
// returning the statistics of Tables 3.2/3.3.
func RunSimulation(ctx context.Context, cfg SimConfig) (SimResult, error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	tables, g := randomSchema(rng, cfg.Tables)
	// Every join tree up to MaxTemplateSize is a template, so the catalogue
	// grows with the schema as the interpretation counts of Table 3.2
	// require; each table occurs at most once per template.
	cat := query.BuildCatalog(g, schemagraph.EnumerateOptions{
		MaxNodes:       cfg.MaxTemplateSize,
		MaxTrees:       cfg.Templates,
		MaxOccurrences: 1,
	})

	// Keyword occurrences: keyword i occurs in table t with probability p.
	cands := &query.Candidates{Keywords: make([]string, cfg.Keywords)}
	cands.PerKeyword = make([][]query.KeywordInterpretation, cfg.Keywords)
	scorer := &randScorer{probs: make(map[string]float64), cat: cat}
	for i := 0; i < cfg.Keywords; i++ {
		kw := fmt.Sprintf("kw%d", i)
		cands.Keywords[i] = kw
		for _, t := range tables {
			if rng.Float64() >= cfg.KeywordTableProb {
				continue
			}
			ki := query.KeywordInterpretation{
				Pos: i, Keyword: kw, Kind: query.KindValue,
				Attr: invindex.AttrRef{Table: t, Column: "val"},
			}
			cands.PerKeyword[i] = append(cands.PerKeyword[i], ki)
			scorer.probs[ki.Key()] = rng.Float64() + 1e-6
		}
		if len(cands.PerKeyword[i]) == 0 {
			t := tables[rng.Intn(len(tables))]
			ki := query.KeywordInterpretation{
				Pos: i, Keyword: kw, Kind: query.KindValue,
				Attr: invindex.AttrRef{Table: t, Column: "val"},
			}
			cands.PerKeyword[i] = append(cands.PerKeyword[i], ki)
			scorer.probs[ki.Key()] = rng.Float64() + 1e-6
		}
	}

	res := SimResult{Interpretations: CountInterpretations(cands, cat)}

	intended, err := sampleIntended(rng, cands, cat)
	if err != nil {
		return res, err
	}
	sess, err := NewSessionContext(ctx, scorer, cands, SessionConfig{
		Threshold:       cfg.Threshold,
		StopAtRemaining: cfg.StopAtRemaining,
	})
	if err != nil {
		return res, err
	}
	user := NewSimulatedUser(intended)
	run, err := RunConstruction(ctx, sess, user)
	if err != nil {
		return res, err
	}
	res.Steps = run.Steps
	if run.Steps > 0 {
		res.TimePerStep = run.OptionTime / time.Duration(run.Steps)
	}
	return res, nil
}

// randomSchema generates a connected random schema graph: a random
// spanning tree plus extra edges up to roughly twice tree density (the
// thesis's "completely connected" simulation graph is approximated by a
// dense connected graph; full cliques make template enumeration
// meaningless).
func randomSchema(rng *rand.Rand, n int) ([]string, *schemagraph.Graph) {
	tables := make([]string, n)
	for i := range tables {
		tables[i] = fmt.Sprintf("t%d", i)
	}
	var edges []schemagraph.Edge
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		edges = append(edges, schemagraph.Edge{
			From: tables[i], To: tables[j],
			FromColumn: fmt.Sprintf("ref_%d", j), ToColumn: "id",
		})
	}
	extra := n
	for e := 0; e < extra; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		edges = append(edges, schemagraph.Edge{
			From: tables[i], To: tables[j],
			FromColumn: fmt.Sprintf("xref_%d_%d", e, j), ToColumn: "id",
		})
	}
	return tables, schemagraph.New(tables, edges)
}

// CountInterpretations computes the size of the interpretation space
// analytically: for every template, the product over keywords of the
// number of compatible (interpretation, occurrence) pairs. This counts
// binding combinations before the minimality filter, which is how the
// space grows polynomially with tables and exponentially with keywords
// (Section 3.8.5); it saturates at maxInt/2.
func CountInterpretations(c *query.Candidates, cat *query.Catalog) int {
	const cap = int(^uint(0)>>1) / 2
	total := 0
	matched := c.MatchedPositions()
	for _, tpl := range cat.Templates {
		prod := 1
		for _, pos := range matched {
			n := 0
			for _, ki := range c.PerKeyword[pos] {
				n += len(tpl.Occurrences(ki.TargetTable()))
			}
			if n == 0 {
				prod = 0
				break
			}
			if prod > cap/n {
				prod = cap
				break
			}
			prod *= n
		}
		if total > cap-prod {
			return cap
		}
		total += prod
	}
	return total
}

// sampleIntended samples a random minimal complete interpretation from
// the space (template + per-keyword binding), retrying until minimality
// holds.
func sampleIntended(rng *rand.Rand, c *query.Candidates, cat *query.Catalog) (*query.Interpretation, error) {
	matched := c.MatchedPositions()
	for attempt := 0; attempt < 2000; attempt++ {
		tpl := cat.Templates[rng.Intn(len(cat.Templates))]
		bindings := make([]query.Binding, 0, len(matched))
		ok := true
		for _, pos := range matched {
			var choices []query.Binding
			kis := c.PerKeyword[pos]
			for k := range kis {
				for _, occ := range tpl.Occurrences(kis[k].TargetTable()) {
					choices = append(choices, query.Binding{KI: &kis[k], Occ: occ})
				}
			}
			if len(choices) == 0 {
				ok = false
				break
			}
			bindings = append(bindings, choices[rng.Intn(len(choices))])
		}
		if !ok {
			continue
		}
		q := query.NewInterpretation(c.Keywords, tpl, bindings)
		if q.Minimal() {
			return q, nil
		}
	}
	return nil, fmt.Errorf("core: could not sample a minimal intended interpretation")
}
