package keysearch

import (
	"reflect"
	"strings"
	"testing"
)

func TestSearchRowsTopK(t *testing.T) {
	eng := builtEngine(t)
	resp, err := eng.SearchRows(bg, RowsRequest{Query: "hanks", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	rows := resp.Rows
	if len(rows) == 0 {
		t.Fatal("no results")
	}
	for i, r := range rows {
		if r.Score <= 0 {
			t.Fatalf("non-positive score: %+v", r)
		}
		if i > 0 && r.Score > rows[i-1].Score {
			t.Fatal("results not sorted by score")
		}
		if r.Query == "" || len(r.Row) == 0 {
			t.Fatalf("incomplete result: %+v", r)
		}
	}
	// The best result must actually contain the keyword.
	found := false
	for _, v := range rows[0].Row {
		if strings.Contains(strings.ToLower(v), "hanks") {
			found = true
		}
	}
	if !found {
		t.Fatalf("top result does not contain the keyword: %v", rows[0].Row)
	}
	// Errors propagate.
	if _, err := eng.SearchRows(bg, RowsRequest{Query: "zzzz", K: 3}); err == nil {
		t.Fatal("unmatched query accepted")
	}
}

func TestParseLabeled(t *testing.T) {
	toks, labels := parseLabeled("name:hanks terminal")
	if !reflect.DeepEqual(toks, []string{"hanks", "terminal"}) {
		t.Fatalf("toks = %v", toks)
	}
	if labels[0] != "name" {
		t.Fatalf("labels = %v", labels)
	}
	if _, ok := labels[1]; ok {
		t.Fatal("unlabelled token got a label")
	}
	// table.column labels.
	toks, labels = parseLabeled("actor.name:tom")
	if len(toks) != 1 || labels[0] != "actor.name" {
		t.Fatalf("toks=%v labels=%v", toks, labels)
	}
	// A label applies to every token of a multi-token keyword.
	toks, labels = parseLabeled("title:the-terminal")
	if len(toks) != 2 || labels[0] != "title" || labels[1] != "title" {
		t.Fatalf("toks=%v labels=%v", toks, labels)
	}
	// Plain queries have no labels.
	_, labels = parseLabeled("hanks terminal")
	if len(labels) != 0 {
		t.Fatalf("labels = %v", labels)
	}
}

func TestLabeledSearchRestrictsAttribute(t *testing.T) {
	eng := builtEngine(t)
	// "london" is ambiguous (actor name vs movie title); labelling it
	// forces the title reading.
	results := search(t, eng, "title:london", 10)
	if len(results) == 0 {
		t.Fatal("no labelled results")
	}
	for _, r := range results {
		if !strings.Contains(r.Query, "title") {
			t.Fatalf("labelled search leaked other attributes: %v", r.Query)
		}
	}
	// Unambiguous count must be below the unlabelled one.
	plain := search(t, eng, "london", 10)
	if len(results) >= len(plain) {
		t.Fatalf("label did not restrict: %d vs %d", len(results), len(plain))
	}
	// A label matching nothing fails cleanly.
	if _, err := eng.Search(bg, SearchRequest{Query: "year:london", K: 10}); err == nil {
		t.Fatal("unsatisfiable label accepted")
	}
}

func TestSegmentationForcesPhrase(t *testing.T) {
	// Build an engine where "tom hanks" always co-occur in actor.name and
	// "tom" also appears in a title (ambiguity the phrase removes).
	mk := func(segment bool) *Engine {
		var opts []Option
		if segment {
			opts = append(opts, WithSegmentPhrases())
		}
		eng, err := New(movieSchema(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		rows := [][]string{
			{"actor", "a1", "Tom Hanks"},
			{"actor", "a2", "Tom Hanks"},
			{"movie", "m1", "Tom and the River", "1995"},
			{"movie", "m2", "Hanks Boulevard", "2010"},
			{"acts", "a1", "m1", "Sam"},
		}
		for _, r := range rows {
			if err := eng.Insert(r[0], r[1:]...); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Build(); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	plain := mk(false)
	seg := mk(true)
	plainResults := search(t, plain, "tom hanks", 0)
	segResults := search(t, seg, "tom hanks", 0)
	if len(segResults) >= len(plainResults) {
		t.Fatalf("segmentation did not prune: %d vs %d", len(segResults), len(plainResults))
	}
	// Every surviving complete interpretation binds both tokens to one
	// attribute.
	for _, r := range segResults {
		if strings.Contains(r.Query, "tom") && strings.Contains(r.Query, "hanks") &&
			!strings.Contains(r.Query, "{tom,hanks}") && !strings.Contains(r.Query, "{hanks,tom}") {
			t.Fatalf("scattered phrase survived: %v", r.Query)
		}
	}
}

func TestSegmentationIgnoresNonPhrases(t *testing.T) {
	eng, err := New(movieSchema(), WithSegmentPhrases())
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]string{
		{"actor", "a1", "Tom Hanks"},
		{"actor", "a2", "Tom Cruise"},
		{"movie", "m1", "The Terminal", "2004"},
		{"acts", "a1", "m1", "Viktor"},
	}
	for _, r := range rows {
		if err := eng.Insert(r[0], r[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	// "hanks terminal" never co-occur in one value: no segment, and the
	// join interpretation must survive.
	results := search(t, eng, "hanks terminal", 0)
	foundJoin := false
	for _, r := range results {
		if len(r.Tables) == 3 {
			foundJoin = true
		}
	}
	if !foundJoin {
		t.Fatal("segmentation pruned a non-phrase join reading")
	}
}

func TestAggregateQueries(t *testing.T) {
	eng, err := New(movieSchema(), WithAggregates())
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]string{
		{"actor", "a1", "Tom Hanks"},
		{"movie", "m1", "The Terminal", "2004"},
		{"movie", "m2", "Cast Away", "2000"},
		{"acts", "a1", "m1", "Viktor"},
		{"acts", "a1", "m2", "Chuck"},
	}
	for _, r := range rows {
		if err := eng.Insert(r[0], r[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	// "number hanks": the analytical reading COUNT(σ_{hanks}(…)) must
	// appear among the interpretations.
	results := search(t, eng, "number hanks", 0)
	var agg *Result
	for i := range results {
		if results[i].Aggregate == "count" {
			agg = &results[i]
			break
		}
	}
	if agg == nil {
		t.Fatalf("no aggregate interpretation found in %d results", len(results))
	}
	if !strings.Contains(agg.Query, "COUNT(") {
		t.Fatalf("aggregate rendering = %q", agg.Query)
	}
	n, err := agg.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Fatalf("count = %d", n)
	}
	// "number" is only interpretable as the operator here, so every
	// complete interpretation is analytical; a query without an
	// aggregation keyword stays plain.
	plain := search(t, eng, "hanks", 0)
	for _, r := range plain {
		if r.Aggregate != "" {
			t.Fatalf("plain query got an aggregate reading: %v", r.Query)
		}
	}
	// With aggregates disabled, "number" has no interpretation at all
	// (it does not occur as a value in this fixture).
	off, err := New(movieSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := off.Insert(r[0], r[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	if err := off.Build(); err != nil {
		t.Fatal(err)
	}
	offResults := search(t, off, "number hanks", 0)
	for _, r := range offResults {
		if r.Aggregate != "" {
			t.Fatal("aggregate interpretation appeared while disabled")
		}
	}
}
