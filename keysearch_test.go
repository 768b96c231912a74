package keysearch

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

var bg = context.Background()

// movieSchema is the running-example schema of the thesis.
func movieSchema() []Table {
	return []Table{
		{
			Name:       "actor",
			Columns:    []Column{{Name: "id"}, {Name: "name", Text: true}},
			PrimaryKey: "id",
		},
		{
			Name:       "movie",
			Columns:    []Column{{Name: "id"}, {Name: "title", Text: true}, {Name: "year", Text: true}},
			PrimaryKey: "id",
		},
		{
			Name:    "acts",
			Columns: []Column{{Name: "actor_id"}, {Name: "movie_id"}, {Name: "role", Text: true}},
			ForeignKeys: []ForeignKey{
				{Column: "actor_id", RefTable: "actor", RefColumn: "id"},
				{Column: "movie_id", RefTable: "movie", RefColumn: "id"},
			},
		},
	}
}

func builtEngine(t testing.TB, opts ...Option) *Engine {
	t.Helper()
	eng, err := New(movieSchema(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]string{
		{"actor", "a1", "Tom Hanks"},
		{"actor", "a2", "Tom Cruise"},
		{"actor", "a3", "Jack London"},
		{"movie", "m1", "The Terminal", "2004"},
		{"movie", "m2", "London Boulevard", "2010"},
		{"acts", "a1", "m1", "Viktor"},
		{"acts", "a3", "m2", "Mitchel"},
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

// search is shorthand for a Search call whose error fails the test.
func search(t *testing.T, eng *Engine, q string, k int) []Result {
	t.Helper()
	resp, err := eng.Search(bg, SearchRequest{Query: q, K: k})
	if err != nil {
		t.Fatalf("Search(%q): %v", q, err)
	}
	return resp.Results
}

func TestNewValidatesSchema(t *testing.T) {
	if _, err := New([]Table{{Name: "t"}}); err == nil {
		t.Fatal("empty columns accepted")
	}
	bad := []Table{{
		Name:    "child",
		Columns: []Column{{Name: "pid"}},
		ForeignKeys: []ForeignKey{
			{Column: "pid", RefTable: "ghost", RefColumn: "id"},
		},
	}}
	if _, err := New(bad); err == nil {
		t.Fatal("dangling FK accepted")
	}
}

func TestLifecycleErrors(t *testing.T) {
	eng, err := New(movieSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Search(bg, SearchRequest{Query: "hanks", K: 3}); err == nil {
		t.Fatal("search before Build accepted")
	}
	if err := eng.Insert("ghost", "x"); err == nil {
		t.Fatal("unknown table accepted")
	}
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Build(); err == nil {
		t.Fatal("double Build accepted")
	}
	if err := eng.Insert("actor", "a9", "X"); err == nil {
		t.Fatal("insert after Build accepted")
	}
	if _, err := eng.Search(bg, SearchRequest{Query: "", K: 3}); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, err := eng.Search(bg, SearchRequest{Query: "zzzznope", K: 3}); err == nil {
		t.Fatal("unmatched query accepted")
	}
}

func TestSearchRanksInterpretations(t *testing.T) {
	eng := builtEngine(t)
	results := search(t, eng, "london", 10)
	if len(results) < 2 {
		t.Fatalf("london should be ambiguous, got %d interpretations", len(results))
	}
	// Probabilities are normalised and descending.
	for i, r := range results {
		if r.Probability <= 0 || r.Probability > 1 {
			t.Fatalf("probability out of range: %+v", r)
		}
		if i > 0 && r.Probability > results[i-1].Probability+1e-12 {
			t.Fatal("results not sorted by probability")
		}
		if r.Query == "" || len(r.Tables) == 0 {
			t.Fatalf("result missing rendering: %+v", r)
		}
	}
	// k caps the result count; SpaceSize reports the pre-cut space.
	resp, err := eng.Search(bg, SearchRequest{Query: "london", K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Query != results[0].Query {
		t.Fatal("k=1 should return the top interpretation")
	}
	if resp.SpaceSize < len(results) {
		t.Fatalf("SpaceSize = %d, want >= %d", resp.SpaceSize, len(results))
	}
}

func TestSearchRowPreviews(t *testing.T) {
	eng := builtEngine(t)
	resp, err := eng.Search(bg, SearchRequest{Query: "london", K: 2, RowLimit: 3})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range resp.Results {
		for _, row := range r.Preview {
			for _, v := range row {
				if strings.Contains(strings.ToLower(v), "london") {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("no preview row contains the keyword")
	}
}

func TestResultRows(t *testing.T) {
	eng := builtEngine(t)
	results := search(t, eng, "hanks terminal", 10)
	// Find the join interpretation and execute it.
	for _, r := range results {
		if len(r.Tables) != 3 {
			continue
		}
		rows, err := r.Rows(10)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			continue
		}
		row := rows[0]
		if row["actor.name"] != "Tom Hanks" {
			t.Fatalf("joined row = %v", row)
		}
		if !strings.Contains(row["movie.title"], "Terminal") {
			t.Fatalf("joined row = %v", row)
		}
		return
	}
	t.Fatal("no executable join interpretation found")
}

func TestDiversify(t *testing.T) {
	eng := builtEngine(t)
	div, err := eng.Diversify(bg, DiversifyRequest{Query: "london", K: 3, Lambda: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(div.Results) == 0 {
		t.Fatal("empty diversification")
	}
	ranked := search(t, eng, "london", 1)
	// DivQ drops empty-result interpretations, so the first diversified
	// interpretation is the most relevant non-empty one — its probability
	// cannot exceed the global top's.
	if div.Results[0].Probability > ranked[0].Probability+1e-12 {
		t.Fatalf("diversified head outranks global top: %v vs %v",
			div.Results[0].Probability, ranked[0].Probability)
	}
	// Every diversified interpretation returns results.
	for _, r := range div.Results {
		rows, err := r.Rows(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			t.Fatalf("diversified interpretation with empty results: %v", r.Query)
		}
	}
	// λ outside [0, 1] would make DivQ's early stop unsound.
	for _, lambda := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := eng.Diversify(bg, DiversifyRequest{Query: "london", K: 3, Lambda: lambda}); !errors.Is(err, ErrLambdaRange) {
			t.Errorf("λ=%v: err = %v, want ErrLambdaRange", lambda, err)
		}
	}
}

func TestConstructionSession(t *testing.T) {
	eng := builtEngine(t)
	c, err := eng.Construct(bg, ConstructRequest{Query: "london 2010", StopAtRemaining: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Drive the session towards "London Boulevard the movie from 2010":
	// accept questions mentioning movie.title or movie.year, reject the
	// rest.
	for !c.Done() {
		q, ok := c.Next()
		if !ok {
			break
		}
		if strings.Contains(q.Text, "movie.") {
			err = c.Accept(bg, q)
		} else {
			err = c.Reject(bg, q)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	cands := c.Candidates()
	if len(cands) == 0 {
		t.Fatal("construction lost all candidates")
	}
	if c.Steps() == 0 {
		t.Fatal("no questions asked for ambiguous query")
	}
	for _, r := range cands {
		if !strings.Contains(r.Query, "movie") {
			t.Fatalf("candidate does not honour accepted options: %v", r.Query)
		}
	}
}

func TestConstructErrors(t *testing.T) {
	eng, err := New(movieSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Construct(bg, ConstructRequest{Query: "x"}); err == nil {
		t.Fatal("construct before Build accepted")
	}
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Construct(bg, ConstructRequest{Query: ""}); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, err := eng.Construct(bg, ConstructRequest{Query: "qqqq"}); err == nil {
		t.Fatal("unmatched query accepted")
	}
}

func TestDemoDatasets(t *testing.T) {
	movies, err := DemoMovies(1)
	if err != nil {
		t.Fatal(err)
	}
	if movies.NumTables() != 7 {
		t.Fatalf("movies tables = %d", movies.NumTables())
	}
	if movies.NumRows() == 0 || movies.NumTemplates() == 0 {
		t.Fatal("demo movies empty")
	}
	qs := movies.SampleQueries(5)
	if len(qs) == 0 {
		t.Fatal("no sample queries")
	}
	res := search(t, movies, qs[0], 3)
	if len(res) == 0 {
		t.Fatal("sample query unusable")
	}

	music, err := DemoMusic(1)
	if err != nil {
		t.Fatal(err)
	}
	if music.NumTables() != 5 {
		t.Fatalf("music tables = %d", music.NumTables())
	}
}

func TestKeywords(t *testing.T) {
	eng := builtEngine(t)
	ks := eng.Keywords("lon", 0)
	found := false
	for _, k := range ks {
		if k == "london" {
			found = true
		}
		if !strings.HasPrefix(k, "lon") {
			t.Fatalf("keyword %q does not match prefix", k)
		}
	}
	if !found {
		t.Fatal("london missing from prefix search")
	}
	if got := eng.Keywords("", 3); len(got) != 3 {
		t.Fatalf("limit not honoured: %d", len(got))
	}
	// The dictionary is sorted.
	all := eng.Keywords("", 0)
	for i := 1; i < len(all); i++ {
		if all[i] < all[i-1] {
			t.Fatal("keywords not sorted")
		}
	}
	unbuilt, err := New(movieSchema())
	if err != nil {
		t.Fatal(err)
	}
	if unbuilt.Keywords("a", 0) != nil {
		t.Fatal("keywords before Build should be nil")
	}
}

func TestResultSQL(t *testing.T) {
	eng := builtEngine(t)
	for _, r := range search(t, eng, "hanks terminal", 5) {
		if !strings.HasPrefix(r.SQL, "SELECT ") || !strings.Contains(r.SQL, "LIKE") {
			t.Fatalf("SQL = %q", r.SQL)
		}
	}
}

func TestSaveLoad(t *testing.T) {
	eng := builtEngine(t)
	var buf bytes.Buffer
	if err := eng.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumRows() != eng.NumRows() || loaded.NumTables() != eng.NumTables() {
		t.Fatal("shape changed across save/load")
	}
	// Search behaviour survives the round trip.
	a := search(t, eng, "london", 0)
	b := search(t, loaded, "london", 0)
	if len(a) != len(b) {
		t.Fatalf("interpretations changed: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Query != b[i].Query {
			t.Fatalf("ranking changed at %d: %q vs %q", i, a[i].Query, b[i].Query)
		}
	}
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage accepted")
	}
}
