package core

import (
	"context"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/invindex"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/schemagraph"
)

// materializeReference is MaterializeInterpretationsContext as it was
// before construction sessions enumerated through
// query.GenerateCompleteContext: every tuple against every template,
// every occurrence assignment, NewInterpretation, then the minimality
// check, then Key and the seen map, and one ranking of the whole space.
func materializeReference(ctx context.Context, scorer Scorer, keywords []string, tuples [][]query.KeywordInterpretation) ([]prob.Scored, error) {
	cat := scorer.Catalog()
	var space []*query.Interpretation
	seen := make(map[string]bool)
	for _, kis := range tuples {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, tpl := range cat.Templates {
			for _, bindings := range assignOccurrences(kis, tpl) {
				q := query.NewInterpretation(keywords, tpl, bindings)
				if !interpMinimal(q) {
					continue
				}
				key := q.Key()
				if seen[key] {
					continue
				}
				seen[key] = true
				space = append(space, q)
			}
		}
	}
	return scorer.RankContext(ctx, space)
}

// assignOccurrences enumerates the ways to place each keyword
// interpretation on an occurrence of its table within the template;
// returns nil when some interpretation's table is absent.
func assignOccurrences(kis []query.KeywordInterpretation, tpl *query.Template) [][]query.Binding {
	var out [][]query.Binding
	cur := make([]query.Binding, 0, len(kis))
	var rec func(i int)
	rec = func(i int) {
		if i == len(kis) {
			out = append(out, slices.Clone(cur))
			return
		}
		if kis[i].Kind == query.KindAggregate {
			cur = append(cur, query.Binding{KI: &kis[i], Occ: -1})
			rec(i + 1)
			cur = cur[:len(cur)-1]
			return
		}
		for _, occ := range tpl.Occurrences(kis[i].TargetTable()) {
			cur = append(cur, query.Binding{KI: &kis[i], Occ: occ})
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}

// interpMinimal applies Definition 3.5.4(2) from the template's tree: a
// grounded binding, and a binding on every occurrence of degree ≤ 1.
func interpMinimal(q *query.Interpretation) bool {
	tree := q.Template.Tree
	n := tree.Size()
	grounded := 0
	for _, b := range q.Bindings {
		if b.Occ >= 0 {
			grounded++
		}
	}
	if grounded == 0 {
		return false
	}
	if n == 1 {
		return true
	}
	bound := make([]bool, n)
	for _, b := range q.Bindings {
		if b.Occ >= 0 {
			bound[b.Occ] = true
		}
	}
	deg := make([]int, n)
	for _, e := range tree.TreeEdges {
		deg[e.From]++
		deg[e.To]++
	}
	for i := 0; i < n; i++ {
		if deg[i] <= 1 && !bound[i] {
			return false
		}
	}
	return true
}

// demoDataset is one demo database as the engine's DemoMovies(7) and
// DemoMusic(7) build it (join path 4 and 5), with the differential's
// keyword queries over it.
type demoDataset struct {
	Name    string
	DB      *relstore.Database
	IX      *invindex.Index
	Cat     *query.Catalog
	Queries [][]string
}

var demoOnce struct {
	sync.Once
	sets []*demoDataset
	err  error
}

// demoDatasets returns the demo movie and music datasets, built once.
func demoDatasets(tb testing.TB) []*demoDataset {
	tb.Helper()
	demoOnce.Do(func() {
		movies, err := datagen.IMDB(datagen.IMDBConfig{Seed: 7})
		if err != nil {
			demoOnce.err = err
			return
		}
		music, err := datagen.Lyrics(datagen.LyricsConfig{Seed: 7})
		if err != nil {
			demoOnce.err = err
			return
		}
		demoOnce.sets = []*demoDataset{newDemoDataset("movies", movies, 4), newDemoDataset("music", music, 5)}
	})
	if demoOnce.err != nil {
		tb.Fatal(demoOnce.err)
	}
	return demoOnce.sets
}

func newDemoDataset(name string, db *relstore.Database, joinPath int) *demoDataset {
	db.Prepare()
	d := &demoDataset{
		Name: name,
		DB:   db,
		IX:   invindex.Build(db),
		Cat:  query.BuildCatalog(schemagraph.FromDatabase(db), schemagraph.EnumerateOptions{MaxNodes: joinPath}),
	}
	// The engine's sample queries: every ambiguous token (at least 4
	// letters, indexed in more than one attribute) in attribute and row
	// order. Each is asked alone and with the next one; every fourth
	// also after an aggregate keyword and after a table name, so the
	// aggregate and schema-term readings take part.
	var toks []string
	seen := map[string]bool{}
	for _, attr := range d.IX.Attributes() {
		tb := db.Table(attr.Table)
		ci := tb.Schema.ColumnIndex(attr.Column)
		for _, row := range tb.Rows() {
			for _, tok := range relstore.Tokenize(row.Values[ci]) {
				if !seen[tok] && len(tok) >= 4 && len(d.IX.Lookup(tok)) > 1 {
					seen[tok] = true
					toks = append(toks, tok)
				}
			}
		}
	}
	tables := db.Tables()
	for i, tok := range toks {
		d.Queries = append(d.Queries, []string{tok})
		if i+1 < len(toks) {
			d.Queries = append(d.Queries, []string{tok, toks[i+1]})
		}
		if i%4 == 0 {
			d.Queries = append(d.Queries,
				[]string{"number", tok},
				[]string{tables[(i/4)%len(tables)].Schema.Name, tok})
		}
	}
	return d
}

// demoSetting is one configuration of the differential: co-occurrence
// in the model, schema terms and aggregates in candidate generation.
type demoSetting struct {
	CoOccurrence, SchemaTerms, Aggregates bool
}

func (s demoSetting) String() string {
	var b strings.Builder
	for _, f := range []struct {
		on   bool
		name string
	}{{s.CoOccurrence, "cooc"}, {s.SchemaTerms, "schema"}, {s.Aggregates, "agg"}} {
		if f.on {
			b.WriteString("+" + f.name)
		} else {
			b.WriteString("-" + f.name)
		}
	}
	return b.String()
}

// forEachDemoQuery calls fn with the model and the candidates of every
// differential query, on both demo datasets, in all eight settings.
func forEachDemoQuery(t *testing.T, fn func(t *testing.T, d *demoDataset, model *prob.Model, c *query.Candidates)) {
	for _, d := range demoDatasets(t) {
		for i := 0; i < 8; i++ {
			set := demoSetting{CoOccurrence: i&4 != 0, SchemaTerms: i&2 != 0, Aggregates: i&1 != 0}
			t.Run(d.Name+"/"+set.String(), func(t *testing.T) {
				model := prob.New(d.IX, d.Cat, prob.Config{UseCoOccurrence: set.CoOccurrence})
				for _, kws := range d.Queries {
					c, err := query.GenerateCandidatesContext(bg, d.IX, kws, query.GenerateOptionsConfig{
						IncludeSchemaTerms: set.SchemaTerms, IncludeAggregates: set.Aggregates,
					})
					if err != nil {
						t.Fatal(err)
					}
					if len(c.MatchedPositions()) > 0 {
						fn(t, d, model, c)
					}
				}
			})
		}
	}
}

// sameScored fails unless got and want hold the same interpretations in
// the same order with bit-identical scores and probabilities, and
// returns how many it compared.
func sameScored(t *testing.T, what string, got, want []prob.Scored) int {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d interpretations, the reference %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Q.Key() != w.Q.Key() {
			t.Fatalf("%s: #%d is %s, the reference's %s", what, i, g.Q.Key(), w.Q.Key())
		}
		if math.Float64bits(g.Score) != math.Float64bits(w.Score) || math.Float64bits(g.Prob) != math.Float64bits(w.Prob) {
			t.Fatalf("%s: #%d %s scores %v (prob %v), the reference %v (prob %v)", what, i, g.Q.Key(), g.Score, g.Prob, w.Score, w.Prob)
		}
	}
	return len(got)
}

// productTuples lists every combination of one candidate per matched
// position, in candidate order: the tuples of a session before any
// decision.
func productTuples(c *query.Candidates) [][]query.KeywordInterpretation {
	tuples := [][]query.KeywordInterpretation{nil}
	for _, pos := range c.MatchedPositions() {
		var next [][]query.KeywordInterpretation
		for _, t := range tuples {
			for _, ki := range c.PerKeyword[pos] {
				next = append(next, append(slices.Clip(t), ki))
			}
		}
		tuples = next
	}
	return tuples
}

// TestMaterializeMatchesReference: on the demo movie and music queries,
// singly and in pairs, with co-occurrence, schema terms and aggregates
// each on and off, MaterializeInterpretationsContext returns the
// reference's interpretations in the reference's order, with the same
// bits in every Score and Prob, for the tuples of a session before any
// decision and for the same tuples reversed.
func TestMaterializeMatchesReference(t *testing.T) {
	var compared int
	forEachDemoQuery(t, func(t *testing.T, d *demoDataset, model *prob.Model, c *query.Candidates) {
		tuples := productTuples(c)
		for range 2 {
			got, err := MaterializeInterpretationsContext(bg, model, c.Keywords, tuples)
			if err != nil {
				t.Fatal(err)
			}
			want, err := materializeReference(bg, model, c.Keywords, tuples)
			if err != nil {
				t.Fatal(err)
			}
			compared += sameScored(t, strings.Join(c.Keywords, " "), got, want)
			slices.Reverse(tuples)
		}
	})
	if compared == 0 {
		t.Fatal("no interpretation compared")
	}
	t.Logf("%d interpretations compared", compared)
}

// hierarchyTuples lists what a session's top level holds once it is
// expanded over every matched keyword: every combination of the
// candidates its decisions allow, ranked as the hierarchy ranks it.
func hierarchyTuples(s *Session) [][]query.KeywordInterpretation {
	top := []partial{{score: 1}}
	for _, pos := range s.order {
		var next []partial
		for _, p := range top {
			for _, ki := range s.cands.PerKeyword[pos] {
				if s.consistentKI(ki) {
					next = append(next, partial{kis: append(slices.Clip(p.kis), ki), score: p.score * s.scorer.KeywordProb(ki)})
				}
			}
		}
		top = next
	}
	ranked := &Session{top: top}
	ranked.sortTop()
	tuples := make([][]query.KeywordInterpretation, len(top))
	for i, p := range ranked.top {
		tuples[i] = p.kis
	}
	return tuples
}

// TestSessionMaterializesAsReference drives IQP sessions over the
// differential's queries, at thresholds 2 and 20, once rejecting every
// option and once accepting exactly the options that subsume the lowest
// ranked interpretation. Whenever a session expands its hierarchy to
// complete interpretations, they must be the reference's for the
// tuples the session's decisions leave.
func TestSessionMaterializesAsReference(t *testing.T) {
	var sessions, compared int
	forEachDemoQuery(t, func(t *testing.T, d *demoDataset, model *prob.Model, c *query.Candidates) {
		space, err := MaterializeInterpretationsContext(bg, model, c.Keywords, productTuples(c))
		if err != nil {
			t.Fatal(err)
		}
		if len(space) == 0 {
			return
		}
		intended := space[len(space)-1].Q
		what := strings.Join(c.Keywords, " ")
		check := func(s *Session, expanded bool) {
			if !expanded && s.fullyExpanded() {
				want, err := materializeReference(bg, model, c.Keywords, hierarchyTuples(s))
				if err != nil {
					t.Fatal(err)
				}
				compared += sameScored(t, what, s.complete, want)
			}
		}
		for _, threshold := range []int{2, 20} {
			for _, accept := range []func(query.Option) bool{
				func(query.Option) bool { return false },
				func(o query.Option) bool { return o.Subsumes(intended) },
			} {
				s, err := NewSessionContext(bg, model, c, SessionConfig{Threshold: threshold, StopAtRemaining: 1})
				if err != nil {
					t.Fatal(err)
				}
				sessions++
				check(s, false)
				for !s.Done() {
					o, ok := s.NextOption()
					if !ok {
						break
					}
					expanded := s.fullyExpanded()
					if accept(o) {
						err = s.AcceptContext(bg, o)
					} else {
						err = s.RejectContext(bg, o)
					}
					if err != nil {
						t.Fatal(err)
					}
					check(s, expanded)
				}
			}
		}
	})
	if compared == 0 {
		t.Fatal("no interpretation compared")
	}
	t.Logf("%d sessions, %d interpretations compared", sessions, compared)
}
