package invindex

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/relstore"
)

func buildTestIndex(t *testing.T) (*relstore.Database, *Index) {
	t.Helper()
	db := relstore.NewDatabase("movies")
	actor, err := db.CreateTable(&relstore.TableSchema{
		Name:       "actor",
		Columns:    []relstore.Column{{Name: "id"}, {Name: "name", Indexed: true}},
		PrimaryKey: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	movie, err := db.CreateTable(&relstore.TableSchema{
		Name:       "movie",
		Columns:    []relstore.Column{{Name: "id"}, {Name: "title", Indexed: true}, {Name: "year", Indexed: true}},
		PrimaryKey: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	ins := func(tb *relstore.Table, vals ...string) {
		t.Helper()
		if _, err := tb.Insert(vals...); err != nil {
			t.Fatal(err)
		}
	}
	ins(actor, "a1", "Tom Hanks")
	ins(actor, "a2", "Tom Cruise")
	ins(actor, "a3", "Colin Hanks")
	ins(movie, "m1", "The Terminal", "2004")
	ins(movie, "m2", "Tom and Huck", "1995")
	ins(movie, "m3", "Terminal Velocity", "1994")
	return db, Build(db)
}

func TestLookupPostings(t *testing.T) {
	_, ix := buildTestIndex(t)
	ps := ix.Lookup("hanks")
	if len(ps) != 1 {
		t.Fatalf("got %d postings for hanks, want 1: %v", len(ps), ps)
	}
	p := ps[0]
	if p.Attr != (AttrRef{Table: "actor", Column: "name"}) {
		t.Fatalf("posting attr = %v", p.Attr)
	}
	if p.Count != 2 || p.DocCount != 2 {
		t.Fatalf("hanks count=%d doc=%d, want 2/2", p.Count, p.DocCount)
	}

	ps = ix.Lookup("terminal")
	if len(ps) != 1 || ps[0].Attr.Column != "title" || ps[0].Count != 2 {
		t.Fatalf("terminal postings = %v", ps)
	}

	// "tom" occurs in actor.name (twice) and movie.title (once).
	ps = ix.Lookup("tom")
	if len(ps) != 2 {
		t.Fatalf("tom postings = %v", ps)
	}
	// Sorted by attr key: actor.name < movie.title.
	if ps[0].Attr.Table != "actor" || ps[0].Count != 2 {
		t.Fatalf("tom posting 0 = %+v", ps[0])
	}
	if ps[1].Attr.Table != "movie" || ps[1].Count != 1 {
		t.Fatalf("tom posting 1 = %+v", ps[1])
	}
}

func TestLookupNormalisesCase(t *testing.T) {
	_, ix := buildTestIndex(t)
	if len(ix.Lookup("HANKS")) != 1 {
		t.Fatal("lookup should be case-insensitive")
	}
	if ix.DocCount("Terminal", AttrRef{Table: "movie", Column: "title"}) != 2 {
		t.Fatal("DocCount should be case-insensitive")
	}
	if ix.Lookup("zzzzz") != nil {
		t.Fatal("Lookup(zzzzz) should be empty")
	}
}

func TestAttrStatistics(t *testing.T) {
	_, ix := buildTestIndex(t)
	name := AttrRef{Table: "actor", Column: "name"}
	if got := ix.AttrTokens(name); got != 6 {
		t.Fatalf("AttrTokens(name) = %d, want 6", got)
	}
	// tom, hanks, cruise, colin.
	if got := ix.AttrVocabulary(name); got != 4 {
		t.Fatalf("AttrVocabulary(name) = %d, want 4", got)
	}
	if got := ix.AttrDocs(name); got != 3 {
		t.Fatalf("AttrDocs(name) = %d, want 3", got)
	}
	if got := ix.TermCount("tom", name); got != 2 {
		t.Fatalf("TermCount(tom, name) = %d, want 2", got)
	}
	if got := ix.DocCount("tom", name); got != 2 {
		t.Fatalf("DocCount(tom, name) = %d, want 2", got)
	}
	// Unknown attribute yields zeros.
	bogus := AttrRef{Table: "x", Column: "y"}
	if ix.AttrTokens(bogus) != 0 || ix.AttrVocabulary(bogus) != 0 || ix.AttrDocs(bogus) != 0 {
		t.Fatal("unknown attr stats should be zero")
	}
}

func TestATF(t *testing.T) {
	_, ix := buildTestIndex(t)
	name := AttrRef{Table: "actor", Column: "name"}
	// count(tom)=2, tokens=6, |V|=4, alpha=1: (2+1)/(6+5) = 3/11.
	if got, want := ix.ATF("tom", name, 1), 3.0/11.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("ATF(tom) = %v, want %v", got, want)
	}
	// Unseen term gets the reserved smoothing mass: 1/11.
	if got, want := ix.ATF("zzz", name, 1), 1.0/11.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("ATF(zzz) = %v, want %v", got, want)
	}
	// More frequent terms have strictly higher ATF.
	if ix.ATF("tom", name, 1) <= ix.ATF("cruise", name, 1) {
		t.Fatal("ATF must be monotone in term count")
	}
	if ix.ATF("zzz", AttrRef{Table: "no", Column: "no"}, 1) != 0 {
		t.Fatal("ATF over unknown attr should be 0")
	}
}

func TestTFIDF(t *testing.T) {
	_, ix := buildTestIndex(t)
	name := AttrRef{Table: "actor", Column: "name"}
	// ln(1 + 3 names / (2 containing tom + 1)) = ln 2.
	if got, want := ix.IDF("tom", name), math.Ln2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("IDF(tom) = %v, want %v", got, want)
	}
	// IDF of a rarer term is higher.
	if ix.IDF("cruise", name) <= ix.IDF("tom", name) {
		t.Fatal("IDF(cruise) should exceed IDF(tom)")
	}
	if ix.IDF("x", AttrRef{Table: "no", Column: "no"}) != 0 {
		t.Fatal("IDF over unknown attr should be 0")
	}
}

func TestSchemaTermMatching(t *testing.T) {
	_, ix := buildTestIndex(t)
	if got := ix.MatchTables("actor"); !reflect.DeepEqual(got, []string{"actor"}) {
		t.Fatalf("MatchTables(actor) = %v", got)
	}
	if got := ix.MatchTables("ACTOR"); !reflect.DeepEqual(got, []string{"actor"}) {
		t.Fatalf("MatchTables should normalise case, got %v", got)
	}
	if got := ix.MatchTables("ghost"); len(got) != 0 {
		t.Fatalf("MatchTables(ghost) = %v", got)
	}
	cols := ix.MatchColumns("title")
	if len(cols) != 1 || cols[0] != (AttrRef{Table: "movie", Column: "title"}) {
		t.Fatalf("MatchColumns(title) = %v", cols)
	}
	if got := ix.MatchColumns("year"); len(got) != 1 {
		t.Fatalf("MatchColumns(year) = %v", got)
	}
}

func TestCoOccurrence(t *testing.T) {
	_, ix := buildTestIndex(t)
	name := AttrRef{Table: "actor", Column: "name"}
	m, tot := ix.CoOccurrence([]string{"tom", "hanks"}, name)
	if m != 1 || tot != 3 {
		t.Fatalf("CoOccurrence(tom hanks, name) = %d/%d, want 1/3", m, tot)
	}
	m, _ = ix.CoOccurrence([]string{"tom", "cruise"}, name)
	if m != 1 {
		t.Fatalf("CoOccurrence(tom cruise) = %d, want 1", m)
	}
	m, _ = ix.CoOccurrence([]string{"hanks", "cruise"}, name)
	if m != 0 {
		t.Fatalf("CoOccurrence(hanks cruise) = %d, want 0", m)
	}
	m, tot = ix.CoOccurrence(nil, name)
	if m != 0 || tot != 3 {
		t.Fatalf("empty bag co-occurrence = %d/%d", m, tot)
	}
	if m, tot := ix.CoOccurrence([]string{"x"}, AttrRef{Table: "no", Column: "no"}); m != 0 || tot != 0 {
		t.Fatal("unknown attr co-occurrence should be 0/0")
	}
}

func TestAttributes(t *testing.T) {
	_, ix := buildTestIndex(t)
	attrs := ix.Attributes()
	want := []AttrRef{
		{Table: "actor", Column: "name"},
		{Table: "movie", Column: "title"},
		{Table: "movie", Column: "year"},
	}
	if !reflect.DeepEqual(attrs, want) {
		t.Fatalf("Attributes = %v, want %v", attrs, want)
	}
	// Mutating the returned slice must not affect the index.
	attrs[0] = AttrRef{Table: "x", Column: "y"}
	if ix.Attributes()[0] != want[0] {
		t.Fatal("Attributes returned internal slice")
	}
}

// Property: every token of every indexed value can be found via Lookup
// in its attribute and in the term dictionary, and its posting counts
// the rows whose value contains it.
func TestIndexCompleteness(t *testing.T) {
	db, ix := buildTestIndex(t)
	for _, tb := range db.Tables() {
		for ci, col := range tb.Schema.Columns {
			if !col.Indexed {
				continue
			}
			for _, row := range tb.Rows() {
				for _, tok := range relstore.Tokenize(row.Values[ci]) {
					rows := 0
					for _, other := range tb.Rows() {
						if slices.Contains(relstore.Tokenize(other.Values[ci]), tok) {
							rows++
						}
					}
					found := false
					for _, p := range ix.Lookup(tok) {
						if p.Attr.Table == tb.Schema.Name && p.Attr.Column == col.Name {
							found = p.DocCount == rows
						}
					}
					if !found || !slices.Contains(ix.TermsWithPrefix(tok, 0), tok) {
						t.Fatalf("token %q of %s.%s row %d not found in index with %d rows",
							tok, tb.Schema.Name, col.Name, row.RowID, rows)
					}
				}
			}
		}
	}
}

// Property: ATF with alpha=1 defines a sub-distribution — summing over the
// attribute vocabulary plus one unseen slot yields 1.
func TestATFSumsToOne(t *testing.T) {
	db, ix := buildTestIndex(t)
	name := AttrRef{Table: "actor", Column: "name"}
	terms := map[string]bool{}
	tb := db.Table("actor")
	ci := tb.Schema.ColumnIndex("name")
	for _, row := range tb.Rows() {
		for _, tok := range relstore.Tokenize(row.Values[ci]) {
			terms[tok] = true
		}
	}
	sum := ix.ATF("###unseen###", name, 1) // the reserved unseen slot
	for term := range terms {
		sum += ix.ATF(term, name, 1)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("ATF mass sums to %v, want 1", sum)
	}
}

// directStats are one attribute's statistics counted from its rows.
type directStats struct {
	tokens, docs int
	count, rows  map[string]int
}

// diffAgainstRows counts every statistic straight from db's rows and
// reports the first accessor of ix that disagrees: Lookup (counts and
// order), TermCount, DocCount, AttrTokens, AttrVocabulary, AttrDocs,
// IDF, ATF and TermsWithPrefix.
func diffAgainstRows(db *relstore.Database, ix *Index) error {
	stats := map[AttrRef]*directStats{}
	vocab := map[string]bool{"absent": true}
	var keys []AttrRef
	for _, tb := range db.Tables() {
		for ci, col := range tb.Schema.Columns {
			if !col.Indexed {
				continue
			}
			attr := AttrRef{Table: tb.Schema.Name, Column: col.Name}
			st := &directStats{count: map[string]int{}, rows: map[string]int{}}
			stats[attr] = st
			keys = append(keys, attr)
			for _, row := range tb.Rows() {
				st.docs++
				seen := map[string]bool{}
				for _, tok := range relstore.Tokenize(row.Values[ci]) {
					st.tokens++
					st.count[tok]++
					if !seen[tok] {
						seen[tok] = true
						st.rows[tok]++
					}
					vocab[tok] = true
				}
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	for term := range vocab {
		var want []Posting
		for _, attr := range keys {
			if st := stats[attr]; st.rows[term] > 0 {
				want = append(want, Posting{Attr: attr, Count: st.count[term], DocCount: st.rows[term]})
			}
		}
		if got := ix.Lookup(term); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("Lookup(%q) = %+v, want %+v", term, got, want)
		}
	}
	for attr, st := range stats {
		if got := ix.AttrTokens(attr); got != st.tokens {
			return fmt.Errorf("AttrTokens(%s) = %d, want %d", attr, got, st.tokens)
		}
		if got := ix.AttrVocabulary(attr); got != len(st.count) {
			return fmt.Errorf("AttrVocabulary(%s) = %d, want %d", attr, got, len(st.count))
		}
		if got := ix.AttrDocs(attr); got != st.docs {
			return fmt.Errorf("AttrDocs(%s) = %d, want %d", attr, got, st.docs)
		}
		for term := range vocab {
			if got := ix.TermCount(term, attr); got != st.count[term] {
				return fmt.Errorf("TermCount(%q, %s) = %d, want %d", term, attr, got, st.count[term])
			}
			if got := ix.DocCount(term, attr); got != st.rows[term] {
				return fmt.Errorf("DocCount(%q, %s) = %d, want %d", term, attr, got, st.rows[term])
			}
			idf := math.Log(1 + float64(st.docs)/float64(st.rows[term]+1))
			if got := ix.IDF(term, attr); got != idf {
				return fmt.Errorf("IDF(%q, %s) = %v, want %v", term, attr, got, idf)
			}
			atf := (float64(st.count[term]) + 1) / (float64(st.tokens) + float64(len(st.count)+1))
			if got := ix.ATF(term, attr, 1); got != atf {
				return fmt.Errorf("ATF(%q, %s) = %v, want %v", term, attr, got, atf)
			}
		}
	}
	delete(vocab, "absent")
	var dict []string
	for term := range vocab {
		dict = append(dict, term)
	}
	sort.Strings(dict)
	if got := ix.TermsWithPrefix("", 0); !slices.Equal(got, dict) {
		return fmt.Errorf("TermsWithPrefix = %v, want %v", got, dict)
	}
	return nil
}

// TestRandomisedIndexAgainstDirectCount: over arbitrary generated
// values, every accessor equals a direct count over the rows after
// Build, after each of a run of random mutation batches in which terms
// appear and vanish, and over the tombstone-free database CompactTables
// returns, whether re-resolved by Apply or built afresh.
func TestRandomisedIndexAgainstDirectCount(t *testing.T) {
	words := []string{"tom", "Hanks", "tom tom", "stone age", "a1 b2", "", "zz top", "river"}
	f := func(values []string, seed int64) bool {
		db := relstore.NewDatabase("r")
		tb, err := db.CreateTable(&relstore.TableSchema{
			Name:       "t",
			Columns:    []relstore.Column{{Name: "k"}, {Name: "v", Indexed: true}, {Name: "w", Indexed: true}},
			PrimaryKey: "k",
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range values {
			if _, err := tb.Insert(fmt.Sprintf("k%d", i), v, words[i%len(words)]); err != nil {
				t.Fatal(err)
			}
		}
		ix := Build(db)
		if err := diffAgainstRows(db, ix); err != nil {
			t.Logf("after Build: %v", err)
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		value := func() string {
			if len(values) > 0 && rng.Intn(2) == 0 {
				return values[rng.Intn(len(values))]
			}
			return words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		}
		next := len(values)
		for batch := 0; batch < 6; batch++ {
			var muts []relstore.Mutation
			used := map[string]bool{}
			for n := 1 + rng.Intn(4); n > 0; n-- {
				key := fmt.Sprintf("k%d", rng.Intn(next+1))
				if used[key] {
					continue
				}
				used[key] = true
				live := len(db.Table("t").LookupEqual("k", key)) > 0
				switch {
				case !live:
					next++
					key = fmt.Sprintf("k%d", next)
					muts = append(muts, relstore.Mutation{Op: relstore.OpInsert, Table: "t", Values: []string{key, value(), value()}})
				case rng.Intn(2) == 0:
					muts = append(muts, relstore.Mutation{Op: relstore.OpDelete, Table: "t", Key: key})
				default:
					muts = append(muts, relstore.Mutation{Op: relstore.OpUpdate, Table: "t", Key: key, Values: []string{key, value(), value()}})
				}
			}
			ndb, changes, err := db.Apply(muts)
			if err != nil {
				t.Fatal(err)
			}
			db, ix = ndb, ix.Apply(ndb, changes)
			if err := diffAgainstRows(db, ix); err != nil {
				t.Logf("after batch %d %+v: %v", batch, muts, err)
				return false
			}
		}
		// Compaction renumbers rows without changing a term: the engine
		// re-resolves the index over the result, and a Build agrees.
		cdb := db.CompactTables([]string{"t"})
		for name, cix := range map[string]*Index{"Apply": ix.Apply(cdb, nil), "Build": Build(cdb)} {
			if err := diffAgainstRows(cdb, cix); err != nil {
				t.Logf("%s after CompactTables: %v", name, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPhrasePairScore(t *testing.T) {
	db := relstore.NewDatabase("p")
	tb, err := db.CreateTable(&relstore.TableSchema{
		Name:    "t",
		Columns: []relstore.Column{{Name: "v", Indexed: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"tom hanks", "tom hanks", "tom cruise", "the terminal"} {
		if _, err := tb.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	ix := Build(db)
	// hanks always co-occurs with tom: score 1 (df(hanks)=2, co=2).
	if got := ix.PhrasePairScore("tom", "hanks"); math.Abs(got-1) > 1e-12 {
		t.Fatalf("PhrasePairScore(tom,hanks) = %v, want 1", got)
	}
	// tom/terminal never co-occur.
	if got := ix.PhrasePairScore("tom", "terminal"); got != 0 {
		t.Fatalf("PhrasePairScore(tom,terminal) = %v, want 0", got)
	}
	// Identical or empty keywords score 0.
	if ix.PhrasePairScore("tom", "tom") != 0 || ix.PhrasePairScore("", "x") != 0 {
		t.Fatal("degenerate pairs should score 0")
	}
	// Symmetric-ish: order may change the base (rarer side), but both
	// directions must be positive for a real phrase.
	if ix.PhrasePairScore("hanks", "tom") <= 0 {
		t.Fatal("reverse direction should be positive")
	}
}
