package invindex

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/durable"
	"repro/internal/relstore"
)

// applyTestDB builds a small two-table database with prepared indexes.
func applyTestDB(t *testing.T) *relstore.Database {
	t.Helper()
	db := relstore.NewDatabase("apply")
	person, err := db.CreateTable(&relstore.TableSchema{
		Name:       "person",
		Columns:    []relstore.Column{{Name: "id"}, {Name: "name", Indexed: true}, {Name: "bio", Indexed: true}},
		PrimaryKey: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	city, err := db.CreateTable(&relstore.TableSchema{
		Name:       "city",
		Columns:    []relstore.Column{{Name: "id"}, {Name: "name", Indexed: true}},
		PrimaryKey: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][]string{
		{"p1", "alice rivers", "writer of rivers and stone"},
		{"p2", "bob stone", "stone stone mason"},
		{"p3", "carol", ""},
	} {
		if _, err := person.Insert(r...); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range [][]string{{"c1", "london"}, {"c2", "stone harbor"}} {
		if _, err := city.Insert(r...); err != nil {
			t.Fatal(err)
		}
	}
	db.Prepare()
	return db
}

// assertIndexesEqual compares every statistic the ranking model and the
// candidate generator read between an incrementally maintained index and
// a freshly built one over the same database.
func assertIndexesEqual(t *testing.T, got, want *Index) {
	t.Helper()
	wantTerms := want.TermsWithPrefix("", 0)
	if gotTerms := got.TermsWithPrefix("", 0); !reflect.DeepEqual(gotTerms, wantTerms) {
		t.Errorf("terms dictionary diverges:\n got %v\nwant %v", gotTerms, wantTerms)
	}
	for _, term := range wantTerms {
		gp, wp := got.Lookup(term), want.Lookup(term)
		if !reflect.DeepEqual(gp, wp) {
			t.Errorf("Lookup(%q):\n got %+v\nwant %+v", term, gp, wp)
		}
	}
	for _, attr := range want.Attributes() {
		if g, w := got.AttrTokens(attr), want.AttrTokens(attr); g != w {
			t.Errorf("AttrTokens(%s): got %d, want %d", attr, g, w)
		}
		if g, w := got.AttrVocabulary(attr), want.AttrVocabulary(attr); g != w {
			t.Errorf("AttrVocabulary(%s): got %d, want %d", attr, g, w)
		}
		if g, w := got.AttrDocs(attr), want.AttrDocs(attr); g != w {
			t.Errorf("AttrDocs(%s): got %d, want %d", attr, g, w)
		}
		for _, term := range wantTerms {
			if g, w := got.TermCount(term, attr), want.TermCount(term, attr); g != w {
				t.Errorf("TermCount(%q, %s): got %d, want %d", term, attr, g, w)
			}
			if g, w := got.DocCount(term, attr), want.DocCount(term, attr); g != w {
				t.Errorf("DocCount(%q, %s): got %d, want %d", term, attr, g, w)
			}
			if g, w := got.ATF(term, attr, 1), want.ATF(term, attr, 1); g != w {
				t.Errorf("ATF(%q, %s): got %v, want %v", term, attr, g, w)
			}
			if g, w := got.IDF(term, attr), want.IDF(term, attr); g != w {
				t.Errorf("IDF(%q, %s): got %v, want %v", term, attr, g, w)
			}
		}
	}
}

// contains reports whether the term occurs anywhere in the index.
func contains(ix *Index, term string) bool { return ix.Lookup(term) != nil }

func TestIndexApplyMatchesBuild(t *testing.T) {
	db := applyTestDB(t)
	ix := Build(db)
	db2, changes, err := db.Apply([]relstore.Mutation{
		{Op: relstore.OpInsert, Table: "person", Values: []string{"p4", "dara stone", "new in london"}},
		{Op: relstore.OpUpdate, Table: "person", Key: "p2", Values: []string{"p2", "bob boulder", "granite mason"}},
		{Op: relstore.OpDelete, Table: "city", Key: "c2"},
		{Op: relstore.OpUpdate, Table: "person", Key: "p3", Values: []string{"p3", "carol", "now has a bio"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := ix.Apply(db2, changes)
	assertIndexesEqual(t, got, Build(db2))

	// The source index is untouched.
	assertIndexesEqual(t, ix, Build(db))
	if !contains(ix, "harbor") {
		t.Fatal("source index lost a term")
	}
	if contains(got, "harbor") {
		t.Fatal("deleted term survives in patched index")
	}
	if !contains(got, "granite") {
		t.Fatal("new term missing from patched index")
	}
}

// rowChunk is relstore's row-chunk length; grownApplyDB sizes the person
// table against it.
const rowChunk = 256

// grownApplyDB is applyTestDB with person grown to two rows short of
// three full row chunks — so it spans three and a third insert starts a
// fourth — and one unique filler term per row, so the term dictionary
// spans several chunks too.
func grownApplyDB(t *testing.T) *relstore.Database {
	t.Helper()
	db := applyTestDB(t)
	person := db.Table("person")
	for i := 0; person.Len() < 3*rowChunk-2; i++ {
		if _, err := person.Insert(fmt.Sprintf("pf%d", i), fmt.Sprintf("m%03d stone", i), "filler"); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// edgeRow picks a live row of the table's first or last row chunk (one
// time in three anywhere), or -1 when its tries find none.
func edgeRow(rng *rand.Rand, tb *relstore.Table) int {
	lo, hi := 0, tb.Len()
	switch rng.Intn(3) {
	case 0:
		hi = min(hi, rowChunk)
	case 1:
		lo = (hi - 1) / rowChunk * rowChunk
	}
	for try := 0; try < 50 && hi > lo; try++ {
		if id := lo + rng.Intn(hi-lo); tb.Live(id) {
			return id
		}
	}
	return -1
}

// TestIndexApplyRandomized drives random batches over a table spanning
// several row chunks and a dictionary spanning several chunks: updates
// and deletes aimed at the first and last row chunk (vanishing filler
// terms from the middle of the dictionary), inserts crossing a row-chunk
// boundary, values adding terms at both ends of the dictionary. After
// every batch the patched index must equal a fresh Build.
func TestIndexApplyRandomized(t *testing.T) {
	db := grownApplyDB(t)
	ix := Build(db)
	if len(ix.dict.chunks) < 3 {
		t.Fatalf("dictionary spans %d chunks, want >= 3", len(ix.dict.chunks))
	}
	rng := rand.New(rand.NewSource(11))
	words := []string{"aardvark", "alice", "stone", "rivers", "london", "mason", "kelp", "onyx", "", "stone stone", "zulu", "zz top"}
	serial := 0
	for round := 0; round < 30; round++ {
		var muts []relstore.Mutation
		used := map[string]bool{}
		for n := 1 + rng.Intn(4); n > 0; n-- {
			tb := db.Tables()[rng.Intn(db.NumTables())]
			name := tb.Schema.Name
			switch rng.Intn(3) {
			case 0:
				serial++
				vals := make([]string, len(tb.Schema.Columns))
				vals[0] = name + "k" + string(rune('a'+serial%26)) + string(rune('a'+(serial/26)%26))
				for i := 1; i < len(vals); i++ {
					vals[i] = words[rng.Intn(len(words))]
				}
				if used[name+vals[0]] {
					continue
				}
				used[name+vals[0]] = true
				muts = append(muts, relstore.Mutation{Op: relstore.OpInsert, Table: name, Values: vals})
			default:
				id := edgeRow(rng, tb)
				if id < 0 {
					continue
				}
				row, _ := tb.Row(id)
				key := row.Values[0]
				if used[name+key] {
					continue
				}
				used[name+key] = true
				if rng.Intn(2) == 0 {
					vals := append([]string(nil), row.Values...)
					vals[1+rng.Intn(len(vals)-1)] = words[rng.Intn(len(words))]
					muts = append(muts, relstore.Mutation{Op: relstore.OpUpdate, Table: name, Key: key, Values: vals})
				} else {
					muts = append(muts, relstore.Mutation{Op: relstore.OpDelete, Table: name, Key: key})
				}
			}
		}
		if len(muts) == 0 {
			continue
		}
		db2, changes, err := db.Apply(muts)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		ix = ix.Apply(db2, changes)
		db = db2
		assertIndexesEqual(t, ix, Build(db))
		if t.Failed() {
			t.Fatalf("diverged at round %d (muts %+v)", round, muts)
		}
	}
	if person := db.Table("person"); person.Len() <= 3*rowChunk {
		t.Fatalf("person has %d slots: no insert crossed a row-chunk boundary", person.Len())
	}
}

// isolationPrefixes are the TermsWithPrefix probes of the snapshot
// isolation test: both ends of the dictionary, the filler middle, and
// the terms the batches add.
var isolationPrefixes = []string{"", "a", "m0", "m5", "sh", "shared", "st", "z"}

// fingerprint renders everything a reader of (db, ix) can observe — every
// row slot with its tombstone, every posting list, every term statistic,
// and the prefix answers — as bytes.
func fingerprint(db *relstore.Database, ix *Index) []byte {
	var e durable.Enc
	db.EncodeSnapshot(&e, relstore.EncodeOptions{Physical: true, Postings: true})
	for _, attr := range ix.Attributes() {
		e.Int(ix.AttrTokens(attr))
		e.Int(ix.AttrVocabulary(attr))
		e.Int(ix.AttrDocs(attr))
	}
	for _, term := range ix.TermsWithPrefix("", 0) {
		e.String(term)
		for _, p := range ix.Lookup(term) {
			e.String(p.Attr.String())
			e.Int(p.Count)
			e.Int(p.DocCount)
		}
	}
	for _, p := range isolationPrefixes {
		for _, term := range ix.TermsWithPrefix(p, 0) {
			e.String(term)
		}
	}
	return append([]byte(nil), e.Bytes()...)
}

// TestApplySnapshotIsolation: a reader pins a snapshot while three later
// batches write the same row chunk, the same copy-on-write shards (one
// shared term) and the same dictionary chunk; the pinned snapshot's
// rows, postings, term statistics and prefix answers stay byte for byte
// what they were. Readers run concurrently with the writer, so -race
// checks the sharing too.
func TestApplySnapshotIsolation(t *testing.T) {
	db := grownApplyDB(t)
	ix := Build(db)
	want := fingerprint(db, ix)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			person := db.Table("person")
			attr := AttrRef{Table: "person", Column: "name"}
			for {
				select {
				case <-stop:
					return
				default:
				}
				for id := 0; id < 8; id++ {
					person.Row(id)
				}
				person.SelectContains("name", []string{"stone"})
				ix.Lookup("shared")
				ix.TermCount("stone", attr)
				ix.DocCount("alice", attr)
				ix.TermsWithPrefix("sh", 0)
			}
		}()
	}

	cur, cix := db, ix
	for b := 0; b < 3; b++ {
		muts := []relstore.Mutation{
			{Op: relstore.OpUpdate, Table: "person", Key: "p1", Values: []string{"p1", fmt.Sprintf("alice shared v%d", b), "stone"}},
			{Op: relstore.OpDelete, Table: "person", Key: fmt.Sprintf("pf%d", 10+b)},
			{Op: relstore.OpInsert, Table: "person", Values: []string{fmt.Sprintf("pn%d", b), fmt.Sprintf("shared%d stone", b), "new"}},
		}
		ndb, changes, err := cur.Apply(muts)
		if err != nil {
			t.Fatal(err)
		}
		cix = cix.Apply(ndb, changes)
		cur = ndb
	}
	close(stop)
	wg.Wait()

	if got := fingerprint(db, ix); !bytes.Equal(got, want) {
		t.Fatal("the pinned snapshot changed under three later batches")
	}
	if !contains(ix, "alice") || contains(ix, "shared") || contains(ix, "shared2") {
		t.Fatal("the pinned index sees a later batch's terms")
	}
	assertIndexesEqual(t, cix, Build(cur))
}
