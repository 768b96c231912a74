package query

import (
	"context"
	"strings"
	"testing"

	"repro/internal/invindex"
	"repro/internal/relstore"
	"repro/internal/schemagraph"
)

// candidates and complete call the generation stages under a live
// context, failing the test on error.
func candidates(t *testing.T, ix *invindex.Index, keywords []string, cfg GenerateOptionsConfig) *Candidates {
	t.Helper()
	c, err := GenerateCandidatesContext(context.Background(), ix, keywords, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func complete(t *testing.T, c *Candidates, cat *Catalog, cfg GenerateConfig) []*Interpretation {
	t.Helper()
	out, err := GenerateCompleteContext(context.Background(), c, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// fixture builds the small movie database used throughout the thesis's
// examples, its index, schema graph and template catalogue.
type fixture struct {
	db  *relstore.Database
	ix  *invindex.Index
	g   *schemagraph.Graph
	cat *Catalog
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
	ins(actor, "a1", "Tom Hanks")
	ins(actor, "a2", "Tom Cruise")
	ins(movie, "m1", "The Terminal", "2004")
	ins(movie, "m2", "Hanks of the River", "2001")
	ins(acts, "a1", "m1", "Viktor")
	ins(acts, "a2", "m1", "Officer Hanks")
	ix := invindex.Build(db)
	g := schemagraph.FromDatabase(db)
	cat := BuildCatalog(g, schemagraph.EnumerateOptions{MaxNodes: 3})
	return &fixture{db: db, ix: ix, g: g, cat: cat}
}

func TestGenerateCandidates(t *testing.T) {
	f := newFixture(t)
	c := candidates(t, f.ix, []string{"Hanks", "2001"}, GenerateOptionsConfig{})
	if len(c.PerKeyword) != 2 {
		t.Fatalf("PerKeyword len = %d", len(c.PerKeyword))
	}
	// hanks occurs in actor.name, movie.title and acts.role.
	if got := len(c.PerKeyword[0]); got != 3 {
		t.Fatalf("hanks candidates = %d, want 3: %v", got, c.PerKeyword[0])
	}
	for _, ki := range c.PerKeyword[0] {
		if ki.Kind != KindValue || ki.Keyword != "hanks" || ki.Pos != 0 {
			t.Fatalf("bad candidate: %+v", ki)
		}
	}
	// 2001 occurs only in movie.year.
	if got := len(c.PerKeyword[1]); got != 1 {
		t.Fatalf("2001 candidates = %d, want 1", got)
	}
	if len(c.Unmatched) != 0 {
		t.Fatalf("Unmatched = %v", c.Unmatched)
	}
	if c.SpaceSize() != 3 {
		t.Fatalf("SpaceSize = %d, want 3", c.SpaceSize())
	}
}

func TestGenerateCandidatesSchemaTerms(t *testing.T) {
	f := newFixture(t)
	c := candidates(t, f.ix, []string{"actor", "hanks"}, GenerateOptionsConfig{IncludeSchemaTerms: true})
	foundTable := false
	for _, ki := range c.PerKeyword[0] {
		if ki.Kind == KindTable && ki.Table == "actor" {
			foundTable = true
		}
	}
	if !foundTable {
		t.Fatal("schema-term table interpretation for 'actor' missing")
	}
	// Without schema terms there is no interpretation for "actor" (it does
	// not occur as a value).
	c = candidates(t, f.ix, []string{"actor"}, GenerateOptionsConfig{})
	if len(c.PerKeyword[0]) != 0 || len(c.Unmatched) != 1 {
		t.Fatalf("expected 'actor' unmatched without schema terms: %v", c.PerKeyword[0])
	}
}

func TestGenerateCandidatesCapPrefersFrequent(t *testing.T) {
	f := newFixture(t)
	c := candidates(t, f.ix, []string{"hanks"}, GenerateOptionsConfig{MaxPerKeyword: 1})
	if len(c.PerKeyword[0]) != 1 {
		t.Fatalf("cap violated: %v", c.PerKeyword[0])
	}
}

func TestGenerateCandidatesUnmatched(t *testing.T) {
	f := newFixture(t)
	c := candidates(t, f.ix, []string{"zzzz", "hanks"}, GenerateOptionsConfig{})
	if len(c.Unmatched) != 1 || c.Unmatched[0] != 0 {
		t.Fatalf("Unmatched = %v", c.Unmatched)
	}
	if got := c.MatchedPositions(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("MatchedPositions = %v", got)
	}
}

func TestGenerateComplete(t *testing.T) {
	f := newFixture(t)
	c := candidates(t, f.ix, []string{"hanks", "2001"}, GenerateOptionsConfig{})
	space := complete(t, c, f.cat, GenerateConfig{})
	if len(space) == 0 {
		t.Fatal("empty interpretation space")
	}
	for _, q := range space {
		if !q.IsComplete() {
			t.Fatalf("incomplete interpretation in space: %v", q)
		}
	}
	// The single-table interpretation σ_{hanks∈title ∧ 2001∈year}(movie)
	// must be present.
	foundSingle := false
	// The join interpretation actor:"hanks" ⋈ acts ⋈ movie:"2001" too.
	foundJoin := false
	for _, q := range space {
		s := q.String()
		if strings.Contains(s, "movie") && q.Template.Size() == 1 &&
			strings.Contains(s, "title") && strings.Contains(s, "year") {
			foundSingle = true
		}
		if q.Template.Size() == 3 && strings.Contains(s, "actor") &&
			strings.Contains(s, "year") && strings.Contains(s, "name") {
			foundJoin = true
		}
	}
	if !foundSingle {
		t.Error("single-table movie interpretation missing")
	}
	if !foundJoin {
		t.Error("actor ⋈ acts ⋈ movie interpretation missing")
	}
	// All keys distinct.
	seen := map[string]bool{}
	for _, q := range space {
		if seen[q.Key()] {
			t.Fatalf("duplicate interpretation: %s", q.Key())
		}
		seen[q.Key()] = true
	}
}

func TestGenerateCompleteMinimality(t *testing.T) {
	f := newFixture(t)
	c := candidates(t, f.ix, []string{"hanks"}, GenerateOptionsConfig{})
	space := complete(t, c, f.cat, GenerateConfig{})
	for _, q := range space {
		// Single keyword: every interpretation must be a single table; any
		// join would have a free leaf.
		if q.Template.Size() != 1 {
			t.Fatalf("non-minimal interpretation for single keyword: %v", q)
		}
	}
	if len(space) != 3 {
		t.Fatalf("expected 3 single-keyword interpretations, got %d", len(space))
	}
}

func TestGenerateCompleteCap(t *testing.T) {
	f := newFixture(t)
	c := candidates(t, f.ix, []string{"hanks", "2001"}, GenerateOptionsConfig{})
	space := complete(t, c, f.cat, GenerateConfig{MaxInterpretations: 2})
	if len(space) != 2 {
		t.Fatalf("cap violated: %d", len(space))
	}
}

func TestGenerateCompleteSkipsUnmatched(t *testing.T) {
	f := newFixture(t)
	c := candidates(t, f.ix, []string{"hanks", "qqqq"}, GenerateOptionsConfig{})
	space := complete(t, c, f.cat, GenerateConfig{})
	if len(space) == 0 {
		t.Fatal("unmatched keyword should be excluded, not kill the space")
	}
	for _, q := range space {
		if q.IsComplete() {
			t.Fatal("interpretation cannot be complete with an unmatched keyword")
		}
		if len(q.Bindings) != 1 {
			t.Fatalf("expected 1 binding, got %d", len(q.Bindings))
		}
	}
}

func TestJoinPlanExecution(t *testing.T) {
	f := newFixture(t)
	c := candidates(t, f.ix, []string{"hanks", "terminal"}, GenerateOptionsConfig{})
	space := complete(t, c, f.cat, GenerateConfig{})
	// Find actor:"hanks" ⋈ acts ⋈ movie:"terminal" and execute it.
	for _, q := range space {
		if q.Template.Size() != 3 {
			continue
		}
		hasName, hasTitle := false, false
		for _, b := range q.Bindings {
			if b.KI.Attr.String() == "actor.name" {
				hasName = true
			}
			if b.KI.Attr.String() == "movie.title" {
				hasTitle = true
			}
		}
		if !hasName || !hasTitle {
			continue
		}
		plan, err := q.JoinPlan()
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.db.Execute(plan, relstore.ExecuteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 {
			t.Fatalf("expected exactly Tom Hanks in The Terminal, got %d results", len(res))
		}
		return
	}
	t.Fatal("expected join interpretation not found")
}

func TestJoinPlanGroupsCoOccurringKeywords(t *testing.T) {
	f := newFixture(t)
	c := candidates(t, f.ix, []string{"tom", "hanks"}, GenerateOptionsConfig{})
	space := complete(t, c, f.cat, GenerateConfig{})
	for _, q := range space {
		if q.Template.Size() != 1 || q.Template.Tree.Tables[0] != "actor" {
			continue
		}
		both := 0
		for _, b := range q.Bindings {
			if b.KI.Attr.String() == "actor.name" {
				both++
			}
		}
		if both != 2 {
			continue
		}
		plan, err := q.JoinPlan()
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Nodes[0].Predicates) != 1 {
			t.Fatalf("co-located keywords should group into one predicate: %v",
				plan.Nodes[0].Predicates)
		}
		if len(plan.Nodes[0].Predicates[0].Keywords) != 2 {
			t.Fatalf("grouped predicate keywords = %v", plan.Nodes[0].Predicates[0].Keywords)
		}
		return
	}
	t.Fatal("σ_{tom,hanks⊂name}(actor) interpretation not found")
}

func TestJoinPlanErrors(t *testing.T) {
	q := &Interpretation{Keywords: []string{"x"}}
	if _, err := q.JoinPlan(); err == nil {
		t.Fatal("nil template should error")
	}
	tpl := NewTemplate(0, &schemagraph.JoinTree{Tables: []string{"actor"}})
	q = NewInterpretation([]string{"x"}, tpl, []Binding{{
		KI:  &KeywordInterpretation{Pos: 0, Keyword: "x", Kind: KindValue, Attr: invindex.AttrRef{Table: "movie", Column: "title"}},
		Occ: 0,
	}})
	if _, err := q.JoinPlan(); err == nil {
		t.Fatal("mismatched occurrence table should error")
	}
	q = NewInterpretation([]string{"x"}, tpl, []Binding{{
		KI:  &KeywordInterpretation{Pos: 0, Keyword: "x", Kind: KindValue, Attr: invindex.AttrRef{Table: "actor", Column: "name"}},
		Occ: 7,
	}})
	if _, err := q.JoinPlan(); err == nil {
		t.Fatal("out-of-range occurrence should error")
	}
}

func TestSubsumption(t *testing.T) {
	f := newFixture(t)
	c := candidates(t, f.ix, []string{"hanks", "2001"}, GenerateOptionsConfig{})
	space := complete(t, c, f.cat, GenerateConfig{})
	nameKI := KeywordInterpretation{Pos: 0, Keyword: "hanks", Kind: KindValue,
		Attr: invindex.AttrRef{Table: "actor", Column: "name"}}
	opt := NewOption(nameKI)
	subsumed, notSubsumed := 0, 0
	for _, q := range space {
		if opt.Subsumes(q) {
			subsumed++
			if !q.HasBinding(nameKI) {
				t.Fatal("subsumption/HasBinding mismatch")
			}
		} else {
			notSubsumed++
		}
	}
	if subsumed == 0 || notSubsumed == 0 {
		t.Fatalf("option should split the space: %d/%d", subsumed, notSubsumed)
	}
}

// Subsumes implements the sub-query relation (Definition 3.5.7) over
// element identities: q subsumes other when every keyword interpretation
// of q is also used by other.
func (q *Interpretation) Subsumes(other *Interpretation) bool {
	for _, b := range q.Bindings {
		if !other.HasBinding(*b.KI) {
			return false
		}
	}
	return true
}

func TestInterpretationSubsumes(t *testing.T) {
	f := newFixture(t)
	c := candidates(t, f.ix, []string{"hanks", "2001"}, GenerateOptionsConfig{})
	space := complete(t, c, f.cat, GenerateConfig{})
	for _, q := range space {
		partial := NewInterpretation(q.Keywords, nil, q.Bindings[:1])
		if !partial.Subsumes(q) {
			t.Fatalf("prefix partial must subsume its completion: %v vs %v", partial, q)
		}
		if len(q.Bindings) > 1 && q.Subsumes(partial) {
			t.Fatal("complete must not subsume its strict partial")
		}
	}
}

func TestDescribeAndString(t *testing.T) {
	ki := KeywordInterpretation{Pos: 0, Keyword: "hanks", Kind: KindValue,
		Attr: invindex.AttrRef{Table: "actor", Column: "name"}}
	if !strings.Contains(ki.Describe(), "actor.name") {
		t.Fatalf("Describe = %q", ki.Describe())
	}
	kt := KeywordInterpretation{Pos: 0, Keyword: "actor", Kind: KindTable, Table: "actor"}
	if !strings.Contains(kt.Describe(), "table") {
		t.Fatalf("Describe = %q", kt.Describe())
	}
	kc := KeywordInterpretation{Pos: 0, Keyword: "title", Kind: KindColumn,
		Attr: invindex.AttrRef{Table: "movie", Column: "title"}}
	if !strings.Contains(kc.Describe(), "attribute") {
		t.Fatalf("Describe = %q", kc.Describe())
	}
	if KindValue.String() != "value" || KindTable.String() != "table" || KindColumn.String() != "column" {
		t.Fatal("Kind.String wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind should still render")
	}
	opt := NewOption(ki, kt)
	if !strings.Contains(opt.Describe(), " and ") {
		t.Fatalf("multi-element option describe = %q", opt.Describe())
	}
}

func TestTemplateOccurrences(t *testing.T) {
	tree := &schemagraph.JoinTree{
		Tables: []string{"actor", "acts", "movie", "acts", "actor"},
		TreeEdges: []schemagraph.TreeEdge{
			{From: 1, To: 0, FromColumn: "actor_id", ToColumn: "id"},
			{From: 1, To: 2, FromColumn: "movie_id", ToColumn: "id"},
			{From: 3, To: 2, FromColumn: "movie_id", ToColumn: "id"},
			{From: 3, To: 4, FromColumn: "actor_id", ToColumn: "id"},
		},
	}
	tpl := NewTemplate(1, tree)
	if got := tpl.Occurrences("actor"); len(got) != 2 {
		t.Fatalf("actor occurrences = %v", got)
	}
	if got := tpl.Occurrences("movie"); len(got) != 1 || got[0] != 2 {
		t.Fatalf("movie occurrences = %v", got)
	}
	if tpl.Size() != 5 {
		t.Fatalf("Size = %d", tpl.Size())
	}
}

func TestCatalogUsage(t *testing.T) {
	f := newFixture(t)
	if f.cat.TotalUsage() != 0 {
		t.Fatal("fresh catalogue should have no usage")
	}
	f.cat.RecordUsage(0, 5)
	f.cat.RecordUsage(1, 3)
	f.cat.RecordUsage(0, 2)
	if f.cat.TotalUsage() != 10 {
		t.Fatalf("TotalUsage = %d", f.cat.TotalUsage())
	}
	if f.cat.UsageCount[0] != 7 {
		t.Fatalf("UsageCount[0] = %d", f.cat.UsageCount[0])
	}
}

func TestNormalizeKeywords(t *testing.T) {
	c := candidates(t, invindex.Build(relstore.NewDatabase("e")),
		[]string{" Hanks ", "TERMINAL"}, GenerateOptionsConfig{})
	if c.Keywords[0] != "hanks" || c.Keywords[1] != "terminal" {
		t.Fatalf("Keywords = %v", c.Keywords)
	}
}

func TestFilterSegments(t *testing.T) {
	f := newFixture(t)
	c := candidates(t, f.ix, []string{"tom", "hanks"}, GenerateOptionsConfig{})
	space := complete(t, c, f.cat, GenerateConfig{})
	// No segments: identity.
	if got := FilterSegments(space, nil); len(got) != len(space) {
		t.Fatal("empty segments must not filter")
	}
	filtered := FilterSegments(space, [][]int{{0, 1}})
	if len(filtered) == 0 || len(filtered) >= len(space) {
		t.Fatalf("segment filter degenerate: %d of %d", len(filtered), len(space))
	}
	for _, q := range filtered {
		var attr string
		occ := -1
		for _, b := range q.Bindings {
			if attr == "" {
				attr = b.KI.Attr.String()
				occ = b.Occ
				continue
			}
			if b.KI.Attr.String() != attr || b.Occ != occ {
				t.Fatalf("scattered phrase survived: %v", q)
			}
		}
	}
	// Single-position segments are ignored.
	if got := FilterSegments(space, [][]int{{0}}); len(got) != len(space) {
		t.Fatal("singleton segment must not filter")
	}
}

func TestAggregateInterpretations(t *testing.T) {
	f := newFixture(t)
	c := candidates(t, f.ix, []string{"number", "hanks"},
		GenerateOptionsConfig{IncludeAggregates: true})
	// "number" maps to the COUNT operator.
	foundAgg := false
	for _, ki := range c.PerKeyword[0] {
		if ki.Kind == KindAggregate && ki.Agg == "count" {
			foundAgg = true
			if ki.TargetTable() != "" {
				t.Fatal("aggregate should not target a table")
			}
			if !strings.Contains(ki.Describe(), "count") {
				t.Fatalf("Describe = %q", ki.Describe())
			}
		}
	}
	if !foundAgg {
		t.Fatal("no aggregate candidate for 'number'")
	}
	space := complete(t, c, f.cat, GenerateConfig{})
	foundAggInterp := false
	for _, q := range space {
		if q.Aggregate() == "count" {
			foundAggInterp = true
			if !strings.HasPrefix(q.String(), "COUNT(") {
				t.Fatalf("aggregate rendering = %q", q.String())
			}
			// The aggregate interpretation still yields an executable plan.
			plan, err := q.JoinPlan()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.db.Count(plan, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !foundAggInterp {
		t.Fatal("no complete aggregate interpretation")
	}
	// An aggregate alone (no grounded binding) must be rejected as
	// non-minimal: query just "number".
	cOnly := candidates(t, f.ix, []string{"number"},
		GenerateOptionsConfig{IncludeAggregates: true})
	if got := complete(t, cOnly, f.cat, GenerateConfig{}); len(got) != 0 {
		t.Fatalf("aggregate-only interpretation accepted: %v", got)
	}
	if KindAggregate.String() != "aggregate" {
		t.Fatal("Kind string")
	}
}

func TestSQLRendering(t *testing.T) {
	f := newFixture(t)
	c := candidates(t, f.ix, []string{"hanks", "terminal"}, GenerateOptionsConfig{})
	space := complete(t, c, f.cat, GenerateConfig{})
	for _, q := range space {
		sql, err := q.SQL()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(sql, "SELECT * FROM ") {
			t.Fatalf("SQL = %q", sql)
		}
		if !strings.Contains(sql, "LIKE '%hanks%'") && !strings.Contains(sql, "LIKE '%terminal%'") {
			t.Fatalf("SQL lacks predicates: %q", sql)
		}
		// Join interpretations carry join conditions.
		if q.Template.Size() == 3 && !strings.Contains(sql, "t0.") {
			t.Fatalf("join SQL lacks aliases: %q", sql)
		}
		if q.Template.Size() == 3 && strings.Count(sql, " = ") != 2 {
			t.Fatalf("3-node join needs 2 equalities: %q", sql)
		}
	}
	// Aggregates render as COUNT.
	ca := candidates(t, f.ix, []string{"number", "hanks"},
		GenerateOptionsConfig{IncludeAggregates: true})
	for _, q := range complete(t, ca, f.cat, GenerateConfig{}) {
		if q.Aggregate() == "" {
			continue
		}
		sql, err := q.SQL()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(sql, "SELECT COUNT(*) FROM ") {
			t.Fatalf("aggregate SQL = %q", sql)
		}
	}
	// Template-less interpretations cannot render.
	if _, err := (&Interpretation{}).SQL(); err == nil {
		t.Fatal("template-less SQL accepted")
	}
	// Quote escaping.
	if got := escapeSQL("o'brien"); got != "o''brien" {
		t.Fatalf("escapeSQL = %q", got)
	}
}

// TestKeyRendering pins Key's exact strings, as the fmt-based rendering
// produced them: ranking tie-breaks, top-k order, deduplication and the
// cache keys downstream all compare these bytes.
func TestKeyRendering(t *testing.T) {
	name := invindex.AttrRef{Table: "actor", Column: "name"}
	for _, c := range []struct {
		ki   KeywordInterpretation
		want string
	}{
		{KeywordInterpretation{Pos: 0, Keyword: "hanks", Kind: KindValue, Attr: name}, "0:hanks=value:actor.name"},
		{KeywordInterpretation{Pos: 1, Keyword: "movie", Kind: KindTable, Table: "movie"}, "1:movie=table:movie"},
		{KeywordInterpretation{Pos: 2, Keyword: "title", Kind: KindColumn, Attr: invindex.AttrRef{Table: "movie", Column: "title"}}, "2:title=column:movie.title"},
		{KeywordInterpretation{Pos: 3, Keyword: "number", Kind: KindAggregate, Agg: "count"}, "3:number=agg:count"},
		{KeywordInterpretation{Pos: 1234, Keyword: "2001", Kind: KindValue, Attr: invindex.AttrRef{Table: "movie", Column: "year"}}, "1234:2001=value:movie.year"},
	} {
		if got := c.ki.Key(); got != c.want {
			t.Errorf("Key() = %q, want %q", got, c.want)
		}
	}
	tree := &schemagraph.JoinTree{
		Tables: []string{"actor", "acts", "movie", "acts", "actor"},
		TreeEdges: []schemagraph.TreeEdge{
			{From: 1, To: 0, FromColumn: "actor_id", ToColumn: "id"},
			{From: 1, To: 2, FromColumn: "movie_id", ToColumn: "id"},
			{From: 3, To: 2, FromColumn: "movie_id", ToColumn: "id"},
			{From: 3, To: 4, FromColumn: "actor_id", ToColumn: "id"},
		},
	}
	q := NewInterpretation([]string{"number", "tom", "hanks"}, NewTemplate(1, tree), []Binding{
		{KI: &KeywordInterpretation{Pos: 2, Keyword: "hanks", Kind: KindValue, Attr: name}, Occ: 4},
		{KI: &KeywordInterpretation{Pos: 0, Keyword: "number", Kind: KindAggregate, Agg: "count"}, Occ: -1},
		{KI: &KeywordInterpretation{Pos: 1, Keyword: "tom", Kind: KindValue, Attr: name}, Occ: 0},
	})
	const want = "actor(id=actor_id:acts(movie_id=id:movie(id=movie_id:acts(actor_id=id:actor()))))" +
		"|0:number=agg:count@-1;1:tom=value:actor.name@0;2:hanks=value:actor.name@4;"
	if got := q.Key(); got != want {
		t.Errorf("Interpretation.Key() = %q, want %q", got, want)
	}
	partial := NewInterpretation([]string{"hanks"}, nil, []Binding{
		{KI: &KeywordInterpretation{Pos: 0, Keyword: "hanks", Kind: KindValue, Attr: name}, Occ: 0},
	})
	if got, want := partial.Key(), "|0:hanks=value:actor.name@0;"; got != want {
		t.Errorf("template-less Key() = %q, want %q", got, want)
	}
}

// TestCompareAttrNames: candidate postings keep the order of their
// "table.column" strings, also where a table name is a prefix of another
// or holds a byte below '.'.
func TestCompareAttrNames(t *testing.T) {
	attrs := []invindex.AttrRef{
		{Table: "a", Column: "x"}, {Table: "a", Column: "y"}, {Table: "a-b", Column: "x"},
		{Table: "ab", Column: "c"}, {Table: "a.b", Column: "c"}, {Table: "a", Column: "b.c"},
		{Table: "", Column: "z"}, {Table: "movie", Column: "title"},
		{Table: strings.Repeat("t", 70), Column: "long"}, {Table: strings.Repeat("t", 70), Column: "longer"},
	}
	for _, a := range attrs {
		for _, b := range attrs {
			if got, want := compareAttrNames(a, b), strings.Compare(a.String(), b.String()); got != want {
				t.Errorf("compareAttrNames(%s, %s) = %d, want %d", a, b, got, want)
			}
		}
	}
}
