package prob

import (
	"context"
	"math"
	"testing"

	"repro/internal/invindex"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/schemagraph"
)

type fixture struct {
	db  *relstore.Database
	ix  *invindex.Index
	cat *query.Catalog
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	db := relstore.NewDatabase("movies")
	must := func(s *relstore.TableSchema) *relstore.Table {
		tb, err := db.CreateTable(s)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	actor := must(&relstore.TableSchema{
		Name:       "actor",
		Columns:    []relstore.Column{{Name: "id"}, {Name: "name", Indexed: true}},
		PrimaryKey: "id",
	})
	movie := must(&relstore.TableSchema{
		Name:       "movie",
		Columns:    []relstore.Column{{Name: "id"}, {Name: "title", Indexed: true}, {Name: "year", Indexed: true}},
		PrimaryKey: "id",
	})
	acts := must(&relstore.TableSchema{
		Name:    "acts",
		Columns: []relstore.Column{{Name: "actor_id"}, {Name: "movie_id"}, {Name: "role", Indexed: true}},
		ForeignKeys: []relstore.ForeignKey{
			{Column: "actor_id", RefTable: "actor", RefColumn: "id"},
			{Column: "movie_id", RefTable: "movie", RefColumn: "id"},
		},
	})
	ins := func(tb *relstore.Table, vals ...string) {
		t.Helper()
		if _, err := tb.Insert(vals...); err != nil {
			t.Fatal(err)
		}
	}
	// "hanks" dominates actor.name; "terminal" occurs once in movie.title.
	ins(actor, "a1", "Tom Hanks")
	ins(actor, "a2", "Colin Hanks")
	ins(actor, "a3", "Tom Cruise")
	ins(movie, "m1", "The Terminal", "2004")
	ins(movie, "m2", "Big", "1988")
	ins(acts, "a1", "m1", "Viktor")
	ins(acts, "a1", "m2", "Josh")
	ix := invindex.Build(db)
	g := schemagraph.FromDatabase(db)
	cat := query.BuildCatalog(g, schemagraph.EnumerateOptions{MaxNodes: 3})
	return &fixture{db: db, ix: ix, cat: cat}
}

// space materialises the complete interpretation space of a keyword
// query against ix, failing the test on error.
func (f *fixture) space(t *testing.T, ix *invindex.Index, keywords ...string) []*query.Interpretation {
	t.Helper()
	c, err := query.GenerateCandidatesContext(context.Background(), ix, keywords, query.GenerateOptionsConfig{})
	if err != nil {
		t.Fatal(err)
	}
	space, err := query.GenerateCompleteContext(context.Background(), c, f.cat, query.GenerateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// rank is RankContext under a live context, failing the test on error.
func rank(t *testing.T, m *Model, space []*query.Interpretation) []Scored {
	t.Helper()
	ranked, err := m.RankContext(context.Background(), space)
	if err != nil {
		t.Fatal(err)
	}
	return ranked
}

func TestTemplatePriorUniform(t *testing.T) {
	f := newFixture(t)
	m := New(f.ix, f.cat, Config{})
	n := len(f.cat.Templates)
	want := 1 / float64(n)
	for _, tpl := range f.cat.Templates {
		if got := m.TemplatePrior(tpl); math.Abs(got-want) > 1e-12 {
			t.Fatalf("uniform prior = %v, want %v", got, want)
		}
	}
}

func TestTemplatePriorFromLog(t *testing.T) {
	f := newFixture(t)
	f.cat.RecordUsage(0, 85)
	f.cat.RecordUsage(1, 15)
	m := New(f.ix, f.cat, Config{UseTemplateLog: true})
	p0 := m.TemplatePrior(f.cat.Templates[0])
	p1 := m.TemplatePrior(f.cat.Templates[1])
	p2 := m.TemplatePrior(f.cat.Templates[2])
	if p0 <= p1 || p1 <= p2 {
		t.Fatalf("log priors not ordered by usage: %v %v %v", p0, p1, p2)
	}
	// Smoothing keeps unseen templates non-zero.
	if p2 <= 0 {
		t.Fatal("unseen template prior must stay positive")
	}
	// Priors sum to ~1 over the catalogue.
	sum := 0.0
	for _, tpl := range f.cat.Templates {
		sum += m.TemplatePrior(tpl)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("priors sum to %v", sum)
	}
}

func TestKeywordProb(t *testing.T) {
	f := newFixture(t)
	m := New(f.ix, f.cat, Config{})
	name := invindex.AttrRef{Table: "actor", Column: "name"}
	title := invindex.AttrRef{Table: "movie", Column: "title"}
	hanksName := query.KeywordInterpretation{Pos: 0, Keyword: "hanks", Kind: query.KindValue, Attr: name}
	hanksTitle := query.KeywordInterpretation{Pos: 0, Keyword: "hanks", Kind: query.KindValue, Attr: title}
	// "hanks" is typical in names, absent from titles: ATF behaviour.
	if m.KeywordProb(hanksName) <= m.KeywordProb(hanksTitle) {
		t.Fatal("ATF should prefer the typical attribute")
	}
	tbl := query.KeywordInterpretation{Pos: 0, Keyword: "actor", Kind: query.KindTable, Table: "actor"}
	if got := m.KeywordProb(tbl); got != 0.5 {
		t.Fatalf("schema-term prob = %v, want default 0.5", got)
	}
}

func TestScoreOrdersTypicalInterpretations(t *testing.T) {
	f := newFixture(t)
	m := New(f.ix, f.cat, Config{})
	space := f.space(t, f.ix, "hanks")
	ranked := rank(t, m, space)
	if len(ranked) == 0 {
		t.Fatal("empty ranking")
	}
	top := ranked[0].Q
	if top.Bindings[0].KI.Attr.String() != "actor.name" {
		t.Fatalf("top interpretation should bind hanks to actor.name, got %v", top)
	}
	// Probabilities normalise to 1 and are non-increasing.
	sum := 0.0
	for i, s := range ranked {
		sum += s.Prob
		if i > 0 && s.Score > ranked[i-1].Score {
			t.Fatal("ranking not sorted")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestScorePartialUsesPu(t *testing.T) {
	f := newFixture(t)
	m := New(f.ix, f.cat, Config{})
	space := f.space(t, f.ix, "hanks", "terminal")
	var complete, partialScore float64
	for _, q := range space {
		s := m.Score(q)
		if q.IsComplete() && s > complete {
			complete = s
		}
	}
	// Build a partial interpretation by dropping one binding from a
	// complete one and verify Pu discounts it below the best complete.
	for _, q := range space {
		if q.IsComplete() && len(q.Bindings) == 2 && q.Template.Size() == 1 {
			partial := query.NewInterpretation(q.Keywords, q.Template, q.Bindings[:1])
			partialScore = m.Score(partial)
			break
		}
	}
	if partialScore == 0 {
		t.Skip("no single-table two-binding interpretation in fixture")
	}
	if partialScore >= complete {
		t.Fatalf("partial score %v should be below best complete %v", partialScore, complete)
	}
}

func TestCoOccurrenceBeatsSplit(t *testing.T) {
	f := newFixture(t)
	m := New(f.ix, f.cat, Config{UseCoOccurrence: true})
	space := f.space(t, f.ix, "tom", "hanks")
	ranked := rank(t, m, space)
	top := ranked[0].Q
	// The top interpretation must bind both keywords to actor.name of the
	// same occurrence (the "first + last name" effect of Equation 4.2).
	if len(top.Bindings) != 2 {
		t.Fatalf("top = %v", top)
	}
	for _, b := range top.Bindings {
		if b.KI.Attr.String() != "actor.name" {
			t.Fatalf("top should bind both keywords to actor.name: %v", top)
		}
	}
}

func TestScoreMonotoneInATF(t *testing.T) {
	f := newFixture(t)
	m := New(f.ix, f.cat, Config{})
	// Same template, same structure: score ordering follows ATF ordering.
	name := invindex.AttrRef{Table: "actor", Column: "name"}
	var tplActor *query.Template
	for _, tpl := range f.cat.Templates {
		if tpl.Size() == 1 && tpl.Tree.Tables[0] == "actor" {
			tplActor = tpl
		}
	}
	if tplActor == nil {
		t.Fatal("actor singleton template missing")
	}
	mk := func(kw string) *query.Interpretation {
		return query.NewInterpretation([]string{kw}, tplActor, []query.Binding{{
			KI:  &query.KeywordInterpretation{Pos: 0, Keyword: kw, Kind: query.KindValue, Attr: name},
			Occ: 0,
		}})
	}
	// hanks occurs twice, cruise once.
	if m.Score(mk("hanks")) <= m.Score(mk("cruise")) {
		t.Fatal("score should be monotone in term frequency")
	}
}

func TestEntropy(t *testing.T) {
	if got := Entropy([]float64{1}); got != 0 {
		t.Fatalf("Entropy(point mass) = %v", got)
	}
	if got := Entropy([]float64{0.5, 0.5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Entropy(fair coin) = %v, want 1", got)
	}
	if got := Entropy([]float64{0.5, 0.5, 0}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("zero entries must not contribute: %v", got)
	}
	u := Entropy([]float64{0.25, 0.25, 0.25, 0.25})
	if math.Abs(u-2) > 1e-12 {
		t.Fatalf("Entropy(uniform 4) = %v, want 2", u)
	}
}

func TestNormalizedEntropy(t *testing.T) {
	if got := NormalizedEntropy([]float64{2, 2}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("NormalizedEntropy = %v, want 1", got)
	}
	if got := NormalizedEntropy(nil); got != 0 {
		t.Fatalf("NormalizedEntropy(nil) = %v", got)
	}
	if got := NormalizedEntropy([]float64{0, 0}); got != 0 {
		t.Fatalf("NormalizedEntropy(zeros) = %v", got)
	}
	// Skewed distribution has lower entropy than uniform.
	if NormalizedEntropy([]float64{9, 1}) >= NormalizedEntropy([]float64{5, 5}) {
		t.Fatal("skew should reduce entropy")
	}
}

func TestConfigDefaults(t *testing.T) {
	f := newFixture(t)
	m := New(f.ix, f.cat, Config{})
	if m.cfg.Alpha != 1 {
		t.Fatalf("default Alpha = %v", m.cfg.Alpha)
	}
	if m.pu <= 0 || m.pu >= 1 {
		t.Fatalf("derived Pu = %v out of (0,1)", m.pu)
	}
	if m.Index() != f.ix || m.Catalog() != f.cat {
		t.Fatal("accessors wrong")
	}
}

func TestRankDeterministicTieBreak(t *testing.T) {
	f := newFixture(t)
	m := New(f.ix, f.cat, Config{})
	space := f.space(t, f.ix, "hanks", "terminal")
	r1 := rank(t, m, space)
	// Reverse input order; ranking must be identical.
	rev := make([]*query.Interpretation, len(space))
	for i, q := range space {
		rev[len(space)-1-i] = q
	}
	r2 := rank(t, m, rev)
	for i := range r1 {
		if r1[i].Q.Key() != r2[i].Q.Key() {
			t.Fatalf("ranking not deterministic at %d", i)
		}
	}
}

// groupedValueProbMap is groupedValueProb as it was with a map from
// (occurrence, attribute) slot to its keywords and a slice of slots in
// first-seen order.
func (m *Model) groupedValueProbMap(q *query.Interpretation) float64 {
	type slot struct {
		occ  int
		attr invindex.AttrRef
	}
	groups := make(map[slot][]string)
	var order []slot
	for _, b := range q.Bindings {
		if b.KI.Kind != query.KindValue {
			continue
		}
		s := slot{occ: b.Occ, attr: b.KI.Attr}
		if _, ok := groups[s]; !ok {
			order = append(order, s)
		}
		groups[s] = append(groups[s], b.KI.Keyword)
	}
	p := 1.0
	for _, s := range order {
		p *= m.jointValueProb(groups[s], s.attr)
	}
	return p
}

// TestGroupedValueProbMatchesMapGrouping: grouping by linear scan keeps
// the groups, their keyword order and the order of the product, so every
// joint probability is bit-identical to the map-based grouping, with the
// score cache on and off.
func TestGroupedValueProbMatchesMapGrouping(t *testing.T) {
	f := newFixture(t)
	name := invindex.AttrRef{Table: "actor", Column: "name"}
	title := invindex.AttrRef{Table: "movie", Column: "title"}
	value := func(pos int, kw string, attr invindex.AttrRef) *query.KeywordInterpretation {
		return &query.KeywordInterpretation{Pos: pos, Keyword: kw, Kind: query.KindValue, Attr: attr}
	}
	// Four groups, interleaved in binding order: the actor's name gets
	// tom, hanks and colin around the movie title's terminal, then come
	// the year and the role.
	var tpl *query.Template
	for _, c := range f.cat.Templates {
		if len(c.Occurrences("actor")) > 0 && len(c.Occurrences("movie")) > 0 && len(c.Occurrences("acts")) > 0 {
			tpl = c
			break
		}
	}
	if tpl == nil {
		t.Fatal("no actor–acts–movie template")
	}
	aOcc, mOcc, rOcc := tpl.Occurrences("actor")[0], tpl.Occurrences("movie")[0], tpl.Occurrences("acts")[0]
	interleaved := query.NewInterpretation([]string{"tom", "terminal", "hanks", "colin", "1988", "viktor"}, tpl, []query.Binding{
		{KI: value(0, "tom", name), Occ: aOcc},
		{KI: value(1, "terminal", title), Occ: mOcc},
		{KI: value(2, "hanks", name), Occ: aOcc},
		{KI: value(3, "colin", name), Occ: aOcc},
		{KI: value(4, "1988", invindex.AttrRef{Table: "movie", Column: "year"}), Occ: mOcc},
		{KI: value(5, "viktor", invindex.AttrRef{Table: "acts", Column: "role"}), Occ: rOcc},
	})
	for _, disable := range []bool{false, true} {
		m := New(f.ix, f.cat, Config{UseCoOccurrence: true, DisableScoreCache: disable})
		space := append(f.space(t, f.ix, "tom", "hanks", "terminal"), f.space(t, f.ix, "hanks", "tom")...)
		space = append(space, interleaved)
		for _, q := range space {
			got, want := m.groupedValueProb(q), m.groupedValueProbMap(q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cache off=%t, %s: grouped %v, map grouping %v", disable, q.Key(), got, want)
			}
		}
	}
}
