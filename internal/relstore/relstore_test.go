package relstore

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func movieDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("movies")
	mustCreate := func(s *TableSchema) *Table {
		tb, err := db.CreateTable(s)
		if err != nil {
			t.Fatalf("CreateTable(%s): %v", s.Name, err)
		}
		return tb
	}
	actor := mustCreate(&TableSchema{
		Name:       "actor",
		Columns:    []Column{{Name: "id"}, {Name: "name", Indexed: true}},
		PrimaryKey: "id",
	})
	movie := mustCreate(&TableSchema{
		Name:       "movie",
		Columns:    []Column{{Name: "id"}, {Name: "title", Indexed: true}, {Name: "year", Indexed: true}},
		PrimaryKey: "id",
	})
	acts := mustCreate(&TableSchema{
		Name:    "acts",
		Columns: []Column{{Name: "actor_id"}, {Name: "movie_id"}, {Name: "role", Indexed: true}},
		ForeignKeys: []ForeignKey{
			{Column: "actor_id", RefTable: "actor", RefColumn: "id"},
			{Column: "movie_id", RefTable: "movie", RefColumn: "id"},
		},
	})
	ins := func(tb *Table, vals ...string) {
		if _, err := tb.Insert(vals...); err != nil {
			t.Fatalf("Insert into %s: %v", tb.Schema.Name, err)
		}
	}
	ins(actor, "a1", "Tom Hanks")
	ins(actor, "a2", "Tom Cruise")
	ins(actor, "a3", "Colin Hanks")
	ins(movie, "m1", "The Terminal", "2004")
	ins(movie, "m2", "Cast Away", "2000")
	ins(movie, "m3", "Vanilla Sky", "2001")
	ins(acts, "a1", "m1", "Viktor Navorski")
	ins(acts, "a1", "m2", "Chuck Noland")
	ins(acts, "a2", "m3", "David Aames")
	ins(acts, "a3", "m1", "Officer")
	if err := db.ValidateRefs(); err != nil {
		t.Fatalf("ValidateRefs: %v", err)
	}
	return db
}

func TestCreateTableValidation(t *testing.T) {
	db := NewDatabase("d")
	cases := []struct {
		name   string
		schema *TableSchema
	}{
		{"empty name", &TableSchema{Columns: []Column{{Name: "a"}}}},
		{"no columns", &TableSchema{Name: "t"}},
		{"dup column", &TableSchema{Name: "t", Columns: []Column{{Name: "a"}, {Name: "a"}}}},
		{"bad pk", &TableSchema{Name: "t", Columns: []Column{{Name: "a"}}, PrimaryKey: "b"}},
		{"bad fk col", &TableSchema{Name: "t", Columns: []Column{{Name: "a"}},
			ForeignKeys: []ForeignKey{{Column: "x", RefTable: "r", RefColumn: "id"}}}},
		{"empty column name", &TableSchema{Name: "t", Columns: []Column{{Name: ""}}}},
	}
	for _, c := range cases {
		if _, err := db.CreateTable(c.schema); err == nil {
			t.Errorf("%s: expected error, got nil", c.name)
		}
	}
	if _, err := db.CreateTable(&TableSchema{Name: "ok", Columns: []Column{{Name: "a"}}}); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	if _, err := db.CreateTable(&TableSchema{Name: "ok", Columns: []Column{{Name: "a"}}}); err == nil {
		t.Errorf("duplicate table name accepted")
	}
}

func TestValidateRefs(t *testing.T) {
	db := NewDatabase("d")
	_, err := db.CreateTable(&TableSchema{
		Name:        "child",
		Columns:     []Column{{Name: "pid"}},
		ForeignKeys: []ForeignKey{{Column: "pid", RefTable: "parent", RefColumn: "id"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ValidateRefs(); err == nil {
		t.Fatal("expected dangling FK table to be reported")
	}
	if _, err := db.CreateTable(&TableSchema{Name: "parent", Columns: []Column{{Name: "nope"}}}); err != nil {
		t.Fatal(err)
	}
	if err := db.ValidateRefs(); err == nil {
		t.Fatal("expected dangling FK column to be reported")
	}
}

func TestInsertArity(t *testing.T) {
	db := NewDatabase("d")
	tb, err := db.CreateTable(&TableSchema{Name: "t", Columns: []Column{{Name: "a"}, {Name: "b"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert("only-one"); err == nil {
		t.Fatal("arity mismatch not rejected")
	}
	id, err := tb.Insert("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 {
		t.Fatalf("first RowID = %d, want 0", id)
	}
	if v, ok := tb.Value(id, "b"); !ok || v != "y" {
		t.Fatalf("Value = %q, %v", v, ok)
	}
	if _, ok := tb.Value(5, "a"); ok {
		t.Fatal("out-of-range row returned ok")
	}
	if _, ok := tb.Row(-1); ok {
		t.Fatal("negative row returned ok")
	}
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Tom Hanks", []string{"tom", "hanks"}},
		{"  The-Terminal (2004)!", []string{"the", "terminal", "2004"}},
		{"", nil},
		{"   ", nil},
		{"a", []string{"a"}},
		{"O'Brien", []string{"o", "brien"}},
		{"abc123 def", []string{"abc123", "def"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestCountTokenMatchesTokenize checks CountToken against counting over
// Tokenize's output: the token total and the matches of every keyword,
// on cells with runes that lower to ASCII (the Kelvin sign, İ), runes
// that do not, invalid UTF-8, digits and empty cells, and on random
// byte strings over the same alphabet. CountToken must not allocate.
func TestCountTokenMatchesTokenize(t *testing.T) {
	cells := []string{
		"", "   ", "Tom Hanks", "tom TOM tom-Tom", "The Terminal (2004)", "abc123 ABC123 abc",
		"\u212Aelvin kelvin KELVIN", "\u212A", "k\u212Ak", "İstanbul istanbul", "İ i ı I",
		"caf\u00e9 cafe CAFÉ", "bad\xffbyte bad \xc3", "\xff\xfe", "x\xe2\x84", "2001 2001: 2001a",
		"ǅemal ǆemal", "ß SS ss", "ａｂｃ abc", "\u0130\u0307x",
	}
	check := func(cell, kw string) {
		t.Helper()
		toks := Tokenize(cell)
		want := 0
		for _, tok := range toks {
			if tok == kw {
				want++
			}
		}
		if m, n := CountToken(cell, kw); m != want || n != len(toks) {
			t.Fatalf("CountToken(%q, %q) = %d, %d; Tokenize gives %d of %d tokens %q", cell, kw, m, n, want, len(toks), toks)
		}
	}
	extra := []string{"", "k", "i", "kelvin", "elvin", "tom", "to", "tomx", "2001", "abc", "abc12", "Tom", "caf", "bad", "byte", "stanbul", "istanbul", "x"}
	for _, cell := range cells {
		for _, kw := range append(Tokenize(cell), extra...) {
			check(cell, kw)
		}
	}
	alphabet := []string{"a", "b", "k", "K", "\u212A", "İ", "ı", "i", "1", "0", " ", "-", "\xff", "\xc3", "é", "ǅ", "Z"}
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 3000; n++ {
		var b strings.Builder
		for l := rng.Intn(12); l > 0; l-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		cell := b.String()
		kws := append(Tokenize(cell), extra[rng.Intn(len(extra))])
		for _, kw := range kws {
			check(cell, kw)
		}
	}
	if a := testing.AllocsPerRun(100, func() { CountToken("İstanbul \u212Aelvin Tom Hanks 2004", "hanks") }); a != 0 {
		t.Fatalf("CountToken allocates %v times per call", a)
	}
}

func TestContainsBag(t *testing.T) {
	if !ContainsBag("Tom Hanks", []string{"hanks"}) {
		t.Error("single keyword containment failed")
	}
	if !ContainsBag("Tom Hanks", []string{"Tom", "HANKS"}) {
		t.Error("case-insensitive bag containment failed")
	}
	if ContainsBag("Tom Hanks", []string{"tom", "tom"}) {
		t.Error("bag semantics: duplicate keyword should need duplicate occurrence")
	}
	if !ContainsBag("tom tom club", []string{"tom", "tom"}) {
		t.Error("duplicate occurrences should satisfy duplicate keywords")
	}
	if ContainsBag("Tomorrow", []string{"tom"}) {
		t.Error("substring must not match whole token")
	}
	if !ContainsBag("x", nil) {
		t.Error("empty bag should be contained everywhere")
	}
}

func TestSelectContains(t *testing.T) {
	db := movieDB(t)
	actor := db.Table("actor")
	got := actor.SelectContains("name", []string{"hanks"})
	if !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("SelectContains(hanks) = %v, want [0 2]", got)
	}
	if got := actor.SelectContains("nope", []string{"x"}); got != nil {
		t.Fatalf("unknown column should select nothing, got %v", got)
	}
	if got := actor.SelectContains("name", []string{"zzz"}); got != nil {
		t.Fatalf("no-match should be empty, got %v", got)
	}
}

func TestLookupEqual(t *testing.T) {
	db := movieDB(t)
	acts := db.Table("acts")
	got := acts.LookupEqual("actor_id", "a1")
	if !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("LookupEqual = %v, want [0 1]", got)
	}
	if got := acts.LookupEqual("bogus", "a1"); got != nil {
		t.Fatalf("unknown column lookup = %v, want nil", got)
	}
	// Insert after index build must keep the index current.
	if _, err := acts.Insert("a1", "m3", "Extra"); err != nil {
		t.Fatal(err)
	}
	got = acts.LookupEqual("actor_id", "a1")
	if !reflect.DeepEqual(got, []int{0, 1, 4}) {
		t.Fatalf("LookupEqual after insert = %v, want [0 1 4]", got)
	}
}

func hanksTerminalPlan() *JoinPlan {
	return &JoinPlan{
		Nodes: []JoinNode{
			{Table: "actor", Predicates: []Predicate{{Column: "name", Keywords: []string{"hanks"}}}},
			{Table: "acts"},
			{Table: "movie", Predicates: []Predicate{{Column: "title", Keywords: []string{"terminal"}}}},
		},
		Edges: []JoinEdge{
			{From: 1, To: 0, FromColumn: "actor_id", ToColumn: "id"},
			{From: 1, To: 2, FromColumn: "movie_id", ToColumn: "id"},
		},
	}
}

func TestExecuteJoin(t *testing.T) {
	db := movieDB(t)
	res, err := db.Execute(hanksTerminalPlan(), ExecuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Tom Hanks (a1) and Colin Hanks (a3) both act in The Terminal (m1).
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2: %v", len(res), res)
	}
	for _, jtt := range res {
		if len(jtt.Rows) != 3 {
			t.Fatalf("JTT arity %d, want 3", len(jtt.Rows))
		}
		name, _ := db.Table("actor").Value(jtt.Rows[0], "name")
		if !ContainsBag(name, []string{"hanks"}) {
			t.Errorf("joined actor %q does not contain hanks", name)
		}
		title, _ := db.Table("movie").Value(jtt.Rows[2], "title")
		if !ContainsBag(title, []string{"terminal"}) {
			t.Errorf("joined movie %q does not contain terminal", title)
		}
	}
}

func TestExecuteLimitAndCount(t *testing.T) {
	db := movieDB(t)
	plan := hanksTerminalPlan()
	res, err := db.Execute(plan, ExecuteOptions{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("limit=1 returned %d results", len(res))
	}
	n, err := db.Count(plan, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("Count = %d, want 2", n)
	}
}

func TestExecuteEmptySelection(t *testing.T) {
	db := movieDB(t)
	plan := hanksTerminalPlan()
	plan.Nodes[2].Predicates[0].Keywords = []string{"nonexistent"}
	res, err := db.Execute(plan, ExecuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("expected empty result, got %d", len(res))
	}
}

func TestExecuteSingleNode(t *testing.T) {
	db := movieDB(t)
	plan := &JoinPlan{Nodes: []JoinNode{{
		Table:      "movie",
		Predicates: []Predicate{{Column: "year", Keywords: []string{"2001"}}},
	}}}
	res, err := db.Execute(plan, ExecuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d results, want 1", len(res))
	}
	title, _ := db.Table("movie").Value(res[0].Rows[0], "title")
	if title != "Vanilla Sky" {
		t.Fatalf("got %q, want Vanilla Sky", title)
	}
}

func TestExecuteSelfJoin(t *testing.T) {
	db := movieDB(t)
	// Movies featuring both an actor named hanks and an actor named cruise:
	// none in this dataset (Cruise is only in Vanilla Sky, Hanks in m1/m2).
	plan := &JoinPlan{
		Nodes: []JoinNode{
			{Table: "actor", Predicates: []Predicate{{Column: "name", Keywords: []string{"hanks"}}}},
			{Table: "acts"},
			{Table: "movie"},
			{Table: "acts"},
			{Table: "actor", Predicates: []Predicate{{Column: "name", Keywords: []string{"cruise"}}}},
		},
		Edges: []JoinEdge{
			{From: 1, To: 0, FromColumn: "actor_id", ToColumn: "id"},
			{From: 1, To: 2, FromColumn: "movie_id", ToColumn: "id"},
			{From: 3, To: 2, FromColumn: "movie_id", ToColumn: "id"},
			{From: 3, To: 4, FromColumn: "actor_id", ToColumn: "id"},
		},
	}
	res, err := db.Execute(plan, ExecuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("expected no hanks+cruise movie, got %d", len(res))
	}
	// But hanks + hanks (two actors named hanks in one movie) exists: The
	// Terminal has Tom Hanks and Colin Hanks (4 ordered pairs incl. (a1,a1))
	// and Cast Away contributes the (a1,a1) pair, so 5 ordered combinations.
	plan.Nodes[4].Predicates[0].Keywords = []string{"hanks"}
	res, err = db.Execute(plan, ExecuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("expected 5 ordered hanks-hanks pairs, got %d", len(res))
	}
}

func TestJoinPlanValidate(t *testing.T) {
	bad := []*JoinPlan{
		{},
		{Nodes: []JoinNode{{Table: "a"}, {Table: "b"}}}, // missing edge
		{Nodes: []JoinNode{{Table: "a"}, {Table: "b"}},
			Edges: []JoinEdge{{From: 0, To: 5}}}, // out of range
		{Nodes: []JoinNode{{Table: "a"}, {Table: "b"}, {Table: "c"}},
			Edges: []JoinEdge{{From: 0, To: 1}, {From: 0, To: 1}}}, // disconnected
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestExecuteUnknownTable(t *testing.T) {
	db := movieDB(t)
	plan := &JoinPlan{Nodes: []JoinNode{{Table: "nope"}}}
	if _, err := db.Execute(plan, ExecuteOptions{}); err == nil {
		t.Fatal("expected error for unknown table")
	}
}

func TestExecuteUnknownJoinColumn(t *testing.T) {
	db := movieDB(t)
	plan := hanksTerminalPlan()
	plan.Edges[0].FromColumn = "bogus"
	if _, err := db.Execute(plan, ExecuteOptions{}); err == nil {
		t.Fatal("expected error for unknown join column")
	}
}

func TestJTTKeys(t *testing.T) {
	db := movieDB(t)
	plan := hanksTerminalPlan()
	res, err := db.Execute(plan, ExecuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	keys := res[0].Keys(plan)
	if len(keys) != 3 {
		t.Fatalf("got %d keys, want 3", len(keys))
	}
	if keys[0].Table != "actor" || keys[2].Table != "movie" {
		t.Fatalf("key tables wrong: %v", keys)
	}
}

func TestDatabaseAccessors(t *testing.T) {
	db := movieDB(t)
	if db.NumTables() != 3 {
		t.Fatalf("NumTables = %d", db.NumTables())
	}
	if got := db.TableNames(); !reflect.DeepEqual(got, []string{"actor", "movie", "acts"}) {
		t.Fatalf("TableNames = %v", got)
	}
	if db.NumRows() != 10 {
		t.Fatalf("NumRows = %d, want 10", db.NumRows())
	}
	if db.Table("ghost") != nil {
		t.Fatal("unknown table should be nil")
	}
	if len(db.Tables()) != 3 {
		t.Fatal("Tables() length mismatch")
	}
}

func TestTextColumns(t *testing.T) {
	s := &TableSchema{Name: "t", Columns: []Column{
		{Name: "id"}, {Name: "name", Indexed: true}, {Name: "bio", Indexed: true},
	}}
	if got := s.TextColumns(); !reflect.DeepEqual(got, []string{"name", "bio"}) {
		t.Fatalf("TextColumns = %v", got)
	}
}

// Property: tokenizing any string yields lower-case alphanumeric tokens,
// and every token is contained in the original per ContainsBag.
func TestTokenizeProperties(t *testing.T) {
	f := func(s string) bool {
		toks := Tokenize(s)
		for _, tok := range toks {
			if tok == "" {
				return false
			}
			for _, r := range tok {
				if !((r >= 'a' && r <= 'z') || (r >= '0' && r <= '9')) {
					return false
				}
			}
			if !ContainsBag(s, []string{tok}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: SortedCopy returns a sorted permutation and does not mutate
// its input.
func TestSortedCopyProperties(t *testing.T) {
	f := func(ids []int) bool {
		orig := make([]int, len(ids))
		copy(orig, ids)
		out := SortedCopy(ids)
		if !reflect.DeepEqual(ids, orig) {
			return false
		}
		if len(out) != len(ids) {
			return false
		}
		for i := 1; i < len(out); i++ {
			if out[i-1] > out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := movieDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name != db.Name {
		t.Fatalf("name = %q", loaded.Name)
	}
	if loaded.NumTables() != db.NumTables() || loaded.NumRows() != db.NumRows() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d",
			loaded.NumTables(), loaded.NumRows(), db.NumTables(), db.NumRows())
	}
	// Schemas, rows and join behaviour survive.
	for _, name := range db.TableNames() {
		orig, got := db.Table(name), loaded.Table(name)
		if got == nil {
			t.Fatalf("table %s lost", name)
		}
		if !reflect.DeepEqual(orig.Schema, got.Schema) {
			t.Fatalf("schema of %s changed", name)
		}
		for _, row := range orig.Rows() {
			lr, ok := got.Row(row.RowID)
			if !ok || !reflect.DeepEqual(lr.Values, row.Values) {
				t.Fatalf("row %d of %s changed", row.RowID, name)
			}
		}
	}
	res, err := loaded.Execute(hanksTerminalPlan(), ExecuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("loaded join results = %d, want 2", len(res))
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not gob")); err == nil {
		t.Fatal("garbage accepted")
	}
}
