package query

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/invindex"
	"repro/internal/relstore"
)

// joinPlanMapGrouped is the map-of-maps JoinPlan that Interpretation.JoinPlan
// replaced, kept as the oracle of TestJoinPlanMatchesMapGrouping.
func joinPlanMapGrouped(q *Interpretation) (*relstore.JoinPlan, error) {
	if q.Template == nil {
		return nil, fmt.Errorf("query: interpretation has no template")
	}
	tree := q.Template.Tree
	plan := &relstore.JoinPlan{
		Nodes: make([]relstore.JoinNode, tree.Size()),
		Edges: make([]relstore.JoinEdge, 0, len(tree.TreeEdges)),
	}
	for i, table := range tree.Tables {
		plan.Nodes[i] = relstore.JoinNode{Table: table}
	}
	for _, e := range tree.TreeEdges {
		plan.Edges = append(plan.Edges, relstore.JoinEdge{
			From: e.From, To: e.To, FromColumn: e.FromColumn, ToColumn: e.ToColumn,
		})
	}
	grouped := make(map[int]map[string][]string)
	for _, b := range q.Bindings {
		if b.KI.Kind != KindValue {
			continue
		}
		if b.Occ < 0 || b.Occ >= tree.Size() {
			return nil, fmt.Errorf("query: binding occurrence %d out of range", b.Occ)
		}
		if tree.Tables[b.Occ] != b.KI.Attr.Table {
			return nil, fmt.Errorf("query: binding table %s does not match occurrence table %s",
				b.KI.Attr.Table, tree.Tables[b.Occ])
		}
		m := grouped[b.Occ]
		if m == nil {
			m = make(map[string][]string)
			grouped[b.Occ] = m
		}
		m[b.KI.Attr.Column] = append(m[b.KI.Attr.Column], b.KI.Keyword)
	}
	for occ, m := range grouped {
		cols := make([]string, 0, len(m))
		for c := range m {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		for _, c := range cols {
			plan.Nodes[occ].Predicates = append(plan.Nodes[occ].Predicates,
				relstore.Predicate{Column: c, Keywords: m[c]})
		}
	}
	return plan, nil
}

// checkJoinPlan compares JoinPlan with the oracle on one interpretation:
// the same nodes and edges, or the same error. (The plan also records the
// template's shape, which the oracle's hand-built plan has not.)
func checkJoinPlan(t *testing.T, q *Interpretation) {
	t.Helper()
	got, gerr := q.JoinPlan()
	want, werr := joinPlanMapGrouped(q)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: error %v, oracle %v", q, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if !reflect.DeepEqual(got.Nodes, want.Nodes) || !reflect.DeepEqual(got.Edges, want.Edges) {
		t.Fatalf("%s:\nplan   %+v\noracle %+v", q, got, want)
	}
}

// TestJoinPlanMatchesMapGrouping pins JoinPlan to the map-grouped oracle,
// over the interpretation spaces generated for 1–3-keyword queries
// (including a duplicated keyword and two keywords on one attribute) and
// over random bindings on every demo template: several value bindings on
// one (occurrence, column), duplicated keywords, schema-term and
// aggregate bindings, and occurrences out of range or on the wrong table.
func TestJoinPlanMatchesMapGrouping(t *testing.T) {
	d := demo(t)
	toks := d.sampleTokens(3)
	queries := [][]string{{"tom", "hanks"}, {"hanks", "hanks"}, {"hanks", "hanks", "2001"}, {"movie", "title", "count"}}
	for kw := 1; kw <= 3; kw++ {
		queries = append(queries, toks[:kw])
	}
	checked := 0
	for _, kws := range queries {
		c := candidates(t, d.ix, kws, GenerateOptionsConfig{})
		space, err := GenerateCompleteContext(context.Background(), c, d.cat, GenerateConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range space {
			checkJoinPlan(t, q)
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("only %d generated interpretations checked", checked)
	}

	rng := rand.New(rand.NewSource(5))
	words := []string{"tom", "hanks", "hanks", "2001", "rivers"}
	for iter := 0; iter < 3000; iter++ {
		tpl := d.cat.Templates[rng.Intn(len(d.cat.Templates))]
		tables := tpl.Tree.Tables
		kw := 1 + rng.Intn(3)
		keywords := make([]string, kw)
		var bindings []Binding
		for pos := range keywords {
			keywords[pos] = words[rng.Intn(len(words))]
			occ := rng.Intn(len(tables))
			ki := KeywordInterpretation{Pos: pos, Keyword: keywords[pos], Kind: KindValue}
			cols := d.db.Table(tables[occ]).Schema.Columns
			ki.Attr = invindex.AttrRef{Table: tables[occ], Column: cols[rng.Intn(len(cols))].Name}
			if prev := len(bindings) - 1; prev >= 0 && bindings[prev].KI.Kind == KindValue && rng.Intn(2) == 0 {
				occ, ki.Attr = bindings[prev].Occ, bindings[prev].KI.Attr // same (occurrence, column)
			}
			switch rng.Intn(20) {
			case 0:
				occ = len(tables) + rng.Intn(2)
			case 1:
				occ = -1
			case 2:
				ki.Attr.Table = "nowhere"
			case 3:
				ki = KeywordInterpretation{Pos: pos, Keyword: keywords[pos], Kind: KindTable, Table: tables[0]}
			case 4:
				ki = KeywordInterpretation{Pos: pos, Keyword: keywords[pos], Kind: KindAggregate, Agg: "count"}
			}
			bindings = append(bindings, Binding{KI: &ki, Occ: occ})
		}
		checkJoinPlan(t, NewInterpretation(keywords, tpl, bindings))
	}
}
