package query

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/invindex"
	"repro/internal/schemagraph"
)

// sqlReference is SQL as it was rendered with fmt, a map from
// (occurrence, column) to its keywords and a sort of the map's keys.
func sqlReference(q *Interpretation) (string, error) {
	if q.Template == nil {
		return "", fmt.Errorf("query: interpretation has no template")
	}
	tree := q.Template.Tree
	var sb strings.Builder
	if agg := q.Aggregate(); agg != "" {
		sb.WriteString("SELECT COUNT(*) FROM ")
	} else {
		sb.WriteString("SELECT * FROM ")
	}
	for i, table := range tree.Tables {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s AS t%d", table, i)
	}
	var conds []string
	for _, e := range tree.TreeEdges {
		conds = append(conds, fmt.Sprintf("t%d.%s = t%d.%s", e.From, e.FromColumn, e.To, e.ToColumn))
	}
	type slot struct {
		occ int
		col string
	}
	grouped := make(map[slot][]string)
	for _, b := range q.Bindings {
		if b.KI.Kind != KindValue {
			continue
		}
		s := slot{occ: b.Occ, col: b.KI.Attr.Column}
		grouped[s] = append(grouped[s], b.KI.Keyword)
	}
	slots := make([]slot, 0, len(grouped))
	for s := range grouped {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool {
		if slots[i].occ != slots[j].occ {
			return slots[i].occ < slots[j].occ
		}
		return slots[i].col < slots[j].col
	})
	for _, s := range slots {
		for _, kw := range grouped[s] {
			conds = append(conds, fmt.Sprintf("t%d.%s LIKE '%%%s%%'", s.occ, s.col, escapeSQL(kw)))
		}
	}
	if len(conds) > 0 {
		sb.WriteString(" WHERE ")
		sb.WriteString(strings.Join(conds, " AND "))
	}
	return sb.String(), nil
}

// escapeSQL doubles single quotes for safe literal embedding.
func escapeSQL(s string) string { return strings.ReplaceAll(s, "'", "''") }

// stringReference is String as it was rendered with fmt, a map of maps
// from occurrence and column to keywords and a sort of each occurrence's
// columns.
func stringReference(q *Interpretation) string {
	if q.Template == nil {
		parts := make([]string, len(q.Bindings))
		for i, b := range q.Bindings {
			parts[i] = b.KI.Describe()
		}
		return "{" + strings.Join(parts, "; ") + "}"
	}
	preds := make(map[int]map[string][]string) // occ -> column -> keywords
	for _, b := range q.Bindings {
		if b.KI.Kind != KindValue {
			continue
		}
		m := preds[b.Occ]
		if m == nil {
			m = make(map[string][]string)
			preds[b.Occ] = m
		}
		m[b.KI.Attr.Column] = append(m[b.KI.Attr.Column], b.KI.Keyword)
	}
	parts := make([]string, q.Template.Size())
	for i, table := range q.Template.Tree.Tables {
		m := preds[i]
		if len(m) == 0 {
			parts[i] = table
			continue
		}
		cols := make([]string, 0, len(m))
		for c := range m {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		var ps []string
		for _, c := range cols {
			ps = append(ps, fmt.Sprintf("{%s}⊂%s", strings.Join(m[c], ","), c))
		}
		parts[i] = fmt.Sprintf("σ_%s(%s)", strings.Join(ps, "∧"), table)
	}
	expr := strings.Join(parts, " ⋈ ")
	if agg := q.Aggregate(); agg != "" {
		return strings.ToUpper(agg) + "(" + expr + ")"
	}
	return expr
}

// checkRender requires SQL, String and Render to return the references'
// bytes, and their errors to agree.
func checkRender(t *testing.T, q *Interpretation) {
	t.Helper()
	wantSQL, wantErr := sqlReference(q)
	wantAlg := stringReference(q)
	gotSQL, err := q.SQL()
	if (err != nil) != (wantErr != nil) || gotSQL != wantSQL {
		t.Fatalf("%s: SQL() = %q, %v\nreference    %q, %v", q.Key(), gotSQL, err, wantSQL, wantErr)
	}
	if got := q.String(); got != wantAlg {
		t.Fatalf("%s: String() = %q\nreference       %q", q.Key(), got, wantAlg)
	}
	alg, sql, err := q.Render()
	if alg != wantAlg || sql != wantSQL || (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: Render() = %q, %q, %v\nreference      %q, %q, %v", q.Key(), alg, sql, err, wantAlg, wantSQL, wantErr)
	}
}

var musicOnce struct {
	sync.Once
	env *demoEnv
	err error
}

// musicDemo is the demo lyrics data at the engine's join path for it, 5.
func musicDemo(t testing.TB) *demoEnv {
	t.Helper()
	musicOnce.Do(func() {
		db, err := datagen.Lyrics(datagen.LyricsConfig{Seed: 7})
		if err != nil {
			musicOnce.err = err
			return
		}
		db.Prepare()
		g := schemagraph.FromDatabase(db)
		musicOnce.env = &demoEnv{
			db:  db,
			ix:  invindex.Build(db),
			g:   g,
			cat: BuildCatalog(g, schemagraph.EnumerateOptions{MaxNodes: 5}),
		}
	})
	if musicOnce.err != nil {
		t.Fatal(musicOnce.err)
	}
	return musicOnce.env
}

// TestRenderMatchesReference: SQL, String and Render return the fmt-based
// references' bytes on every interpretation of the golden queries'
// spaces (the first four sample tokens alone, then the first two and
// three together) over the demo movie and lyrics data, with schema terms,
// aggregates and segments each on and off, on the movie reference
// queries' spaces, and on hand-built cases.
func TestRenderMatchesReference(t *testing.T) {
	ctx := context.Background()
	for _, ds := range []struct {
		name string
		env  func(testing.TB) *demoEnv
	}{{"movies", demo}, {"music", musicDemo}} {
		d := ds.env(t)
		toks := d.sampleTokens(4)
		queries := [][]string{toks[:1], toks[1:2], toks[2:3], toks[3:4], toks[:2], toks[:3]}
		for _, schema := range []bool{false, true} {
			for _, aggs := range []bool{false, true} {
				opts := GenerateOptionsConfig{IncludeSchemaTerms: schema, IncludeAggregates: aggs}
				n := 0
				for _, kws := range queries {
					space, err := GenerateCompleteContext(ctx, candidates(t, d.ix, kws, opts), d.cat, GenerateConfig{})
					if err != nil {
						t.Fatal(err)
					}
					for _, sp := range [][]*Interpretation{space, FilterSegments(space, [][]int{{0, 1}, {1, 2}})} {
						for _, q := range sp {
							checkRender(t, q)
							n++
						}
					}
				}
				t.Logf("%s schema=%t aggs=%t: %d interpretations", ds.name, schema, aggs, n)
			}
		}
	}
	forEachReference(t, demo(t), func(t *testing.T, c *Candidates) {
		space, err := GenerateCompleteContext(ctx, c, demo(t).cat, GenerateConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range space {
			checkRender(t, q)
		}
	})
	for _, q := range renderHandCases() {
		checkRender(t, q)
	}
}

// renderHandCases are interpretations generation does not reach on the
// demo data: keywords with quotes, LIKE wildcards and non-ASCII letters,
// a self-join with two occurrences of one table bound, a COUNT
// aggregate, one table with no edge, no value binding at all, and a
// template-less reading.
func renderHandCases() []*Interpretation {
	name := invindex.AttrRef{Table: "actor", Column: "name"}
	role := invindex.AttrRef{Table: "acts", Column: "role"}
	title := invindex.AttrRef{Table: "movie", Column: "title"}
	value := func(pos int, kw string, attr invindex.AttrRef) *KeywordInterpretation {
		return &KeywordInterpretation{Pos: pos, Keyword: kw, Kind: KindValue, Attr: attr}
	}
	selfJoin := NewTemplate(1, &schemagraph.JoinTree{
		Tables: []string{"actor", "acts", "movie", "acts", "actor"},
		TreeEdges: []schemagraph.TreeEdge{
			{From: 1, To: 0, FromColumn: "actor_id", ToColumn: "id"},
			{From: 1, To: 2, FromColumn: "movie_id", ToColumn: "id"},
			{From: 3, To: 2, FromColumn: "movie_id", ToColumn: "id"},
			{From: 3, To: 4, FromColumn: "actor_id", ToColumn: "id"},
		},
	})
	chain := NewTemplate(2, &schemagraph.JoinTree{
		Tables: []string{"actor", "acts", "movie"},
		TreeEdges: []schemagraph.TreeEdge{
			{From: 1, To: 0, FromColumn: "actor_id", ToColumn: "id"},
			{From: 1, To: 2, FromColumn: "movie_id", ToColumn: "id"},
		},
	})
	single := NewTemplate(3, &schemagraph.JoinTree{Tables: []string{"movie"}})
	count := &KeywordInterpretation{Pos: 0, Keyword: "number", Kind: KindAggregate, Agg: "count"}
	return []*Interpretation{
		NewInterpretation([]string{"o'brien", "100%", "ünïcödé"}, chain, []Binding{
			{KI: value(0, "o'brien", name), Occ: 0},
			{KI: value(1, "100%", title), Occ: 2},
			{KI: value(2, "ünïcödé", role), Occ: 1},
		}),
		NewInterpretation([]string{"''", "%_%", "日本"}, chain, []Binding{
			{KI: value(0, "''", name), Occ: 0},
			{KI: value(1, "%_%", name), Occ: 0},
			{KI: value(2, "日本", name), Occ: 0},
		}),
		NewInterpretation([]string{"number", "tom", "hanks", "meg", "terminal"}, selfJoin, []Binding{
			{KI: count, Occ: -1},
			{KI: value(1, "tom", name), Occ: 4},
			{KI: value(2, "hanks", name), Occ: 4},
			{KI: value(3, "meg", name), Occ: 0},
			{KI: value(4, "terminal", title), Occ: 2},
		}),
		NewInterpretation([]string{"number", "ryan"}, single, []Binding{
			{KI: count, Occ: -1},
			{KI: value(1, "ryan", invindex.AttrRef{Table: "movie", Column: "title"}), Occ: 0},
		}),
		NewInterpretation([]string{"ryan"}, single, []Binding{{KI: value(0, "ryan", title), Occ: 0}}),
		NewInterpretation([]string{"movie"}, single, []Binding{
			{KI: &KeywordInterpretation{Pos: 0, Keyword: "movie", Kind: KindTable, Table: "movie"}, Occ: 0},
		}),
		NewInterpretation([]string{"number", "actor", "title"}, chain, []Binding{
			{KI: count, Occ: -1},
			{KI: &KeywordInterpretation{Pos: 1, Keyword: "actor", Kind: KindTable, Table: "actor"}, Occ: 0},
			{KI: &KeywordInterpretation{Pos: 2, Keyword: "title", Kind: KindColumn, Attr: title}, Occ: 2},
		}),
		NewInterpretation([]string{"summe"}, chain, []Binding{
			{KI: &KeywordInterpretation{Pos: 0, Keyword: "summe", Kind: KindAggregate, Agg: "ßumme"}, Occ: -1},
		}),
		NewInterpretation([]string{"hanks"}, nil, []Binding{{KI: value(0, "hanks", name), Occ: 0}}),
	}
}
