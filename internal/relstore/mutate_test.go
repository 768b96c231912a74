package relstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/durable"
)

// mutTestDB builds a small person/city/lives database with built posting
// lists and equality indexes (Prepare), the steady state Apply patches.
func mutTestDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("mut")
	mustCreate := func(s *TableSchema) *Table {
		tb, err := db.CreateTable(s)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	person := mustCreate(&TableSchema{
		Name:       "person",
		Columns:    []Column{{Name: "id"}, {Name: "name", Indexed: true}},
		PrimaryKey: "id",
	})
	city := mustCreate(&TableSchema{
		Name:       "city",
		Columns:    []Column{{Name: "id"}, {Name: "name", Indexed: true}},
		PrimaryKey: "id",
	})
	mustCreate(&TableSchema{
		Name:       "lives",
		Columns:    []Column{{Name: "id"}, {Name: "pid"}, {Name: "cid"}, {Name: "note", Indexed: true}},
		PrimaryKey: "id",
		ForeignKeys: []ForeignKey{
			{Column: "pid", RefTable: "person", RefColumn: "id"},
			{Column: "cid", RefTable: "city", RefColumn: "id"},
		},
	})
	for _, r := range [][]string{
		{"p1", "alice rivers"}, {"p2", "bob stone stone"}, {"p3", "carol rivers"},
	} {
		if _, err := person.Insert(r...); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range [][]string{{"c1", "london"}, {"c2", "paris"}} {
		if _, err := city.Insert(r...); err != nil {
			t.Fatal(err)
		}
	}
	lives := db.Table("lives")
	for _, r := range [][]string{
		{"l1", "p1", "c1", "moved 2001"}, {"l2", "p2", "c2", "born 1999"}, {"l3", "p3", "c1", "moved 1999"},
	} {
		if _, err := lives.Insert(r...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.ValidateRefs(); err != nil {
		t.Fatal(err)
	}
	db.Prepare()
	return db
}

// assertSelectionsAgree cross-checks the incrementally maintained posting
// lists against the scan reference on every indexed column for a bag of
// probe keywords.
func assertSelectionsAgree(t *testing.T, db *Database, probes [][]string) {
	t.Helper()
	for _, tb := range db.Tables() {
		for _, col := range tb.Schema.TextColumns() {
			for _, bag := range probes {
				got := SortedCopy(tb.SelectContains(col, bag))
				want := tb.SelectContainsScan(col, bag)
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s.%s contains %v: postings %v, scan %v", tb.Schema.Name, col, bag, got, want)
				}
			}
		}
	}
}

// assertIndexesAgree cross-checks every built equality index against a
// live-row scan.
func assertIndexesAgree(t *testing.T, db *Database) {
	t.Helper()
	for _, tb := range db.Tables() {
		for ci, col := range tb.Schema.Columns {
			want := make(map[string][]int)
			for _, r := range tb.Rows() {
				if !tb.Live(r.RowID) {
					continue
				}
				want[r.Values[ci]] = append(want[r.Values[ci]], r.RowID)
			}
			for v, ids := range want {
				got := tb.LookupEqual(col.Name, v)
				if !reflect.DeepEqual(SortedCopy(got), ids) {
					t.Errorf("%s.%s = %q: index %v, scan %v", tb.Schema.Name, col.Name, v, got, ids)
				}
			}
		}
	}
}

var mutProbes = [][]string{
	{"rivers"}, {"stone"}, {"stone", "stone"}, {"moved"}, {"1999"},
	{"moved", "1999"}, {"zeta"}, {"london"}, {"dara", "bridge"},
}

func TestApplyInsertUpdateDelete(t *testing.T) {
	db := mutTestDB(t)
	db2, changes, err := db.Apply([]Mutation{
		{Op: OpInsert, Table: "person", Values: []string{"p4", "dara bridge"}},
		{Op: OpUpdate, Table: "person", Key: "p2", Values: []string{"p2", "bob boulder"}},
		{Op: OpDelete, Table: "lives", Key: "l2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(changes) != 3 {
		t.Fatalf("changes = %d, want 3", len(changes))
	}
	if changes[0].Old != nil || changes[0].New == nil || changes[0].RowID != 3 {
		t.Fatalf("insert change = %+v", changes[0])
	}
	if changes[1].Old == nil || changes[1].New == nil {
		t.Fatalf("update change = %+v", changes[1])
	}
	if changes[2].New != nil || changes[2].Old == nil {
		t.Fatalf("delete change = %+v", changes[2])
	}

	// The original database is untouched (copy-on-write).
	if db.NumRows() != 8 || db.Table("person").NumLive() != 3 {
		t.Fatal("source database changed")
	}
	if got := db.Table("person").SelectContains("name", []string{"stone"}); len(got) != 1 {
		t.Fatalf("source postings changed: %v", got)
	}
	if got := db.Table("lives").LookupEqual("id", "l2"); len(got) != 1 {
		t.Fatalf("source index changed: %v", got)
	}

	// The new database reflects the batch.
	if db2.NumRows() != 8 { // +1 insert, -1 delete
		t.Fatalf("new NumRows = %d, want 8", db2.NumRows())
	}
	if got := db2.Table("person").SelectContains("name", []string{"bridge"}); len(got) != 1 {
		t.Fatalf("inserted row not selectable: %v", got)
	}
	if got := db2.Table("person").SelectContains("name", []string{"stone"}); len(got) != 0 {
		t.Fatalf("old value still selectable after update: %v", got)
	}
	if got := db2.Table("lives").LookupEqual("id", "l2"); len(got) != 0 {
		t.Fatalf("deleted row still in index: %v", got)
	}
	if _, ok := db2.Table("lives").Row(1); ok {
		t.Fatal("deleted row still readable")
	}
	assertSelectionsAgree(t, db2, mutProbes)
	assertIndexesAgree(t, db2)
}

func TestApplyIntraBatchVisibility(t *testing.T) {
	db := mutTestDB(t)
	db2, _, err := db.Apply([]Mutation{
		{Op: OpInsert, Table: "city", Values: []string{"c3", "berlin"}},
		{Op: OpUpdate, Table: "city", Key: "c3", Values: []string{"c3", "hamburg"}},
		{Op: OpInsert, Table: "city", Values: []string{"c4", "ghent"}},
		{Op: OpDelete, Table: "city", Key: "c4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	city := db2.Table("city")
	if city.NumLive() != 3 {
		t.Fatalf("NumLive = %d, want 3", city.NumLive())
	}
	if got := city.SelectContains("name", []string{"hamburg"}); len(got) != 1 {
		t.Fatal("intra-batch update lost")
	}
	for _, gone := range []string{"berlin", "ghent"} {
		if got := city.SelectContains("name", []string{gone}); len(got) != 0 {
			t.Fatalf("%q still selectable", gone)
		}
	}
	assertSelectionsAgree(t, db2, [][]string{{"hamburg"}, {"berlin"}, {"ghent"}, {"london"}})
}

func TestApplyValidationErrors(t *testing.T) {
	db := mutTestDB(t)
	cases := []struct {
		name string
		muts []Mutation
		want string
	}{
		{"empty", nil, "empty mutation batch"},
		{"bad op", []Mutation{{Op: "merge", Table: "city"}}, "unknown op"},
		{"bad table", []Mutation{{Op: OpInsert, Table: "nope", Values: []string{"x"}}}, "unknown table"},
		{"bad arity insert", []Mutation{{Op: OpInsert, Table: "city", Values: []string{"c9"}}}, "expects 2 values"},
		{"bad arity update", []Mutation{{Op: OpUpdate, Table: "city", Key: "c1", Values: []string{"c1"}}}, "expects 2 values"},
		{"missing key", []Mutation{{Op: OpUpdate, Table: "city", Key: "", Values: []string{"c9", "x"}}}, "empty key"},
		{"unknown key", []Mutation{{Op: OpDelete, Table: "city", Key: "c9"}}, "no row with"},
	}
	for _, tc := range cases {
		if _, _, err := db.Apply(tc.muts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// Duplicate keys are rejected at insert and at re-keying updates:
	// a second live row under one key would be unaddressable forever.
	if _, _, err := db.Apply([]Mutation{{Op: OpInsert, Table: "city", Values: []string{"c1", "dupe"}}}); err == nil ||
		!strings.Contains(err.Error(), "already has a row") {
		t.Fatalf("duplicate insert: err = %v", err)
	}
	if _, _, err := db.Apply([]Mutation{{Op: OpUpdate, Table: "city", Key: "c2", Values: []string{"c1", "paris"}}}); err == nil ||
		!strings.Contains(err.Error(), "already has a row") {
		t.Fatalf("re-keying update onto live key: err = %v", err)
	}

	// Deleted keys stop resolving and become insertable again; double
	// delete fails cleanly.
	db2, _, err := db.Apply([]Mutation{{Op: OpDelete, Table: "city", Key: "c1"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db2.Apply([]Mutation{{Op: OpDelete, Table: "city", Key: "c1"}}); err == nil {
		t.Fatal("double delete accepted")
	}
	if _, _, err := db2.Apply([]Mutation{{Op: OpInsert, Table: "city", Values: []string{"c1", "londres"}}}); err != nil {
		t.Fatalf("re-insert of deleted key rejected: %v", err)
	}
}

func TestApplyDuplicateTokenCounts(t *testing.T) {
	db := mutTestDB(t)
	// "stone stone" satisfies the duplicated bag; after deleting p2 the
	// maxCount shortcut must be maintained so the bag matches nothing.
	if got := db.Table("person").SelectContains("name", []string{"stone", "stone"}); len(got) != 1 {
		t.Fatalf("precondition: %v", got)
	}
	db2, _, err := db.Apply([]Mutation{{Op: OpDelete, Table: "person", Key: "p2"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := db2.Table("person").SelectContains("name", []string{"stone", "stone"}); len(got) != 0 {
		t.Fatalf("stale duplicated-bag match: %v", got)
	}
	// Re-insert with a single occurrence: the bag still must not match.
	db3, _, err := db2.Apply([]Mutation{{Op: OpInsert, Table: "person", Values: []string{"p5", "gia stone"}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := db3.Table("person").SelectContains("name", []string{"stone", "stone"}); len(got) != 0 {
		t.Fatalf("maxCount not maintained: %v", got)
	}
	if got := db3.Table("person").SelectContains("name", []string{"stone"}); len(got) != 1 {
		t.Fatalf("single stone: %v", got)
	}
	assertSelectionsAgree(t, db3, mutProbes)
}

// chunkedMutTestDB is mutTestDB with person and lives grown to two rows
// short of three full row chunks, so the tables span three chunks and a
// third insert starts a fourth.
func chunkedMutTestDB(t *testing.T) *Database {
	t.Helper()
	db := mutTestDB(t)
	person, lives := db.Table("person"), db.Table("lives")
	words := []string{"alice", "stone", "rivers", "moved", "1999", "quartz", "delta"}
	for i := 0; person.Len() < 3*chunkSize-2; i++ {
		pid := fmt.Sprintf("pf%d", i)
		if _, err := person.Insert(pid, words[i%len(words)]+" "+words[i*3%len(words)]); err != nil {
			t.Fatal(err)
		}
		if _, err := lives.Insert(fmt.Sprintf("lf%d", i), pid, fmt.Sprintf("c%d", 1+i%2), words[i*5%len(words)]); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// edgeRow picks a live row of the table's first or last row chunk (one
// time in three anywhere), or -1 when its tries find none.
func edgeRow(rng *rand.Rand, t *Table) int {
	lo, hi := 0, t.Len()
	switch rng.Intn(3) {
	case 0:
		hi = min(hi, chunkSize)
	case 1:
		lo = (hi - 1) &^ chunkMask
	}
	for try := 0; try < 50 && hi > lo; try++ {
		if id := lo + rng.Intn(hi-lo); t.Live(id) {
			return id
		}
	}
	return -1
}

// assertMatchesFresh compares db with a fresh database decoded from its
// physical rows alone — posting lists and equality indexes all rebuilt
// from scratch, RowIDs and tombstones kept — on everything a reader can
// ask: every row slot, every selection probe, every equality lookup and
// the plan's join results.
func assertMatchesFresh(t *testing.T, db *Database, probes [][]string, plan *JoinPlan) {
	t.Helper()
	var enc durable.Enc
	db.EncodeSnapshot(&enc, EncodeOptions{Physical: true})
	fresh, err := DecodeSnapshot(durable.NewDec(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fresh.Prepare()
	for _, tb := range db.Tables() {
		ft := fresh.Table(tb.Schema.Name)
		if tb.Len() != ft.Len() || tb.NumLive() != ft.NumLive() {
			t.Fatalf("%s: %d slots / %d live, fresh %d / %d", tb.Schema.Name, tb.Len(), tb.NumLive(), ft.Len(), ft.NumLive())
		}
		for id := 0; id < tb.Len(); id++ {
			got, gok := tb.Row(id)
			want, wok := ft.Row(id)
			if gok != wok || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s row %d: %v %v, fresh %v %v", tb.Schema.Name, id, got, gok, want, wok)
			}
		}
		for _, col := range tb.Schema.TextColumns() {
			for _, bag := range probes {
				if got, want := SortedCopy(tb.SelectContains(col, bag)), SortedCopy(ft.SelectContains(col, bag)); !sameIDs(got, want) {
					t.Fatalf("%s.%s contains %v: %v, fresh %v", tb.Schema.Name, col, bag, got, want)
				}
			}
		}
		for ci, col := range tb.Schema.Columns {
			for _, r := range ft.Rows() {
				v := r.Values[ci]
				if got, want := tb.LookupEqual(col.Name, v), ft.LookupEqual(col.Name, v); !sameIDs(got, want) {
					t.Fatalf("%s.%s = %q: %v, fresh %v", tb.Schema.Name, col.Name, v, got, want)
				}
			}
		}
	}
	got, err := db.Execute(plan, ExecuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Execute(plan, ExecuteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameJTTs(got, want) {
		t.Fatalf("Execute %v, fresh %v", got, want)
	}
}

// TestApplyRandomizedDifferential drives random mutation chains over
// tables spanning several row chunks — updates and deletes aimed at the
// first and last chunk, inserts crossing a chunk boundary — and after
// every batch cross-checks postings vs scan, indexes vs scan, execution
// vs the scan executor, and the whole patched database against a fresh
// one built from its rows.
func TestApplyRandomizedDifferential(t *testing.T) {
	db := chunkedMutTestDB(t)
	rng := rand.New(rand.NewSource(7))
	words := []string{"alice", "stone", "rivers", "moved", "1999", "quartz", "delta"}
	plan := &JoinPlan{
		Nodes: []JoinNode{
			{Table: "person", Predicates: []Predicate{{Column: "name", Keywords: []string{"rivers"}}}},
			{Table: "lives"},
			{Table: "city"},
		},
		Edges: []JoinEdge{
			{From: 1, To: 0, FromColumn: "pid", ToColumn: "id"},
			{From: 1, To: 2, FromColumn: "cid", ToColumn: "id"},
		},
	}
	startChunks := len(db.Table("person").chunks)
	serial := 0
	for round := 0; round < 40; round++ {
		var muts []Mutation
		// Each key is targeted at most once per batch, so a later mutation
		// cannot address a row an earlier one deleted.
		usedKeys := make(map[string]bool)
		for n := 1 + rng.Intn(4); n > 0; n-- {
			tb := db.Tables()[rng.Intn(db.NumTables())]
			name := tb.Schema.Name
			textCol := tb.Schema.TextColumns()[0]
			ci := tb.Schema.ColumnIndex(textCol)
			switch rng.Intn(3) {
			case 0:
				serial++
				vals := make([]string, len(tb.Schema.Columns))
				for i := range vals {
					vals[i] = "k" + name + string(rune('0'+serial%10)) + string(rune('a'+serial/10%26))
				}
				vals[0] = name + "key" + string(rune('a'+serial%26)) + string(rune('a'+serial/26%26))
				vals[ci] = words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
				if usedKeys[name+"\x00"+vals[0]] {
					continue
				}
				usedKeys[name+"\x00"+vals[0]] = true
				muts = append(muts, Mutation{Op: OpInsert, Table: name, Values: vals})
			case 1:
				if id := edgeRow(rng, tb); id >= 0 {
					vals := append([]string(nil), tb.slot(id).Values...)
					if usedKeys[name+"\x00"+vals[0]] {
						continue
					}
					usedKeys[name+"\x00"+vals[0]] = true
					vals[ci] = words[rng.Intn(len(words))]
					muts = append(muts, Mutation{Op: OpUpdate, Table: name, Key: vals[0], Values: vals})
				}
			default:
				if id := edgeRow(rng, tb); id >= 0 {
					key := tb.slot(id).Values[0]
					if usedKeys[name+"\x00"+key] {
						continue
					}
					usedKeys[name+"\x00"+key] = true
					muts = append(muts, Mutation{Op: OpDelete, Table: name, Key: key})
				}
			}
		}
		if len(muts) == 0 {
			continue
		}
		ndb, _, err := db.Apply(muts)
		if err != nil {
			// Key collisions on random inserts are possible; skip.
			if strings.Contains(err.Error(), "already has a row with") {
				continue
			}
			t.Fatalf("round %d: %v", round, err)
		}
		db = ndb
		assertSelectionsAgree(t, db, mutProbes)
		assertIndexesAgree(t, db)
		got, err := db.Execute(plan, ExecuteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.ExecuteScan(plan, ExecuteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: Execute %v, ExecuteScan %v", round, got, want)
		}
		assertMatchesFresh(t, db, mutProbes, plan)
	}
	if n := len(db.Table("person").chunks); n <= startChunks {
		t.Fatalf("person still spans %d chunks: no insert crossed a chunk boundary", n)
	}
}

// TestApplyCopiesTouchedChunksOnly: a batch copies the row chunks it
// writes — each once — and shares every other chunk with its source,
// which keeps its own.
func TestApplyCopiesTouchedChunksOnly(t *testing.T) {
	db := chunkedMutTestDB(t)
	person := db.Table("person")
	before := append([]*chunk(nil), person.chunks...)
	last := person.Len() - 1
	ndb, _, err := db.Apply([]Mutation{
		{Op: OpUpdate, Table: "person", Key: "p1", Values: []string{"p1", "alice brook"}},
		{Op: OpDelete, Table: "person", Key: "p2"},
		{Op: OpUpdate, Table: "person", Key: person.slot(last).Values[0], Values: []string{person.slot(last).Values[0], "last row"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	np := ndb.Table("person")
	for i, c := range np.chunks {
		if touched := i == 0 || i == last>>chunkBits; (c != before[i]) != touched {
			t.Errorf("chunk %d: copied %v, touched %v", i, c != before[i], touched)
		}
	}
	if np.base != nil {
		t.Error("published table still records its copy source")
	}
	if !slices.Equal(person.chunks, before) || !person.Live(1) || person.slot(0).Values[1] != "alice rivers" {
		t.Error("the source table changed")
	}
	if row, ok := np.Row(0); !ok || row.Values[1] != "alice brook" || np.Live(1) {
		t.Errorf("patched table: row 0 = %v, row 1 live %v", row, np.Live(1))
	}
	if ndb.Table("city") != db.Table("city") {
		t.Error("an untouched table was copied")
	}
}

// TestInsertRowSharesTailWithoutClobbering: a run of appends writes in
// place into one backing array, yet two successors of one version both
// keep their own last element and every earlier version keeps its
// contents; against SortedInsert over random versions and RowIDs.
func TestInsertRowSharesTailWithoutClobbering(t *testing.T) {
	var ids []int
	var tl *tail
	for id := 0; id < 10; id++ {
		ids, tl = insertRow(ids, tl, id)
	}
	v := ids
	a, _ := insertRow(v, tl, 100)
	if &a[0] != &v[0] {
		t.Fatal("an append with room and an unmoved tail copied the list")
	}
	b, _ := insertRow(v, tl, 200)
	if &b[0] == &v[0] {
		t.Fatal("the second successor of one version wrote into the shared array")
	}
	if want := append(slices.Clone(v), 100); !slices.Equal(a, want) {
		t.Fatalf("first successor = %v, want %v", a, want)
	}
	if want := append(slices.Clone(v), 200); !slices.Equal(b, want) {
		t.Fatalf("second successor = %v, want %v", b, want)
	}

	type version struct {
		ids  []int
		tail *tail
		want []int
	}
	rng := rand.New(rand.NewSource(3))
	versions := []version{{}}
	for i := 0; i < 2000; i++ {
		from := versions[rng.Intn(len(versions))]
		if rng.Intn(4) > 0 {
			from = versions[len(versions)-1] // mostly linear, as snapshots are
		}
		id := len(from.want) + rng.Intn(3) - 1 // mostly appends, some middle inserts and duplicates
		ids, tl := insertRow(from.ids, from.tail, id)
		versions = append(versions, version{ids, tl, SortedInsert(from.want, id)})
	}
	for i, v := range versions {
		if !slices.Equal(v.ids, v.want) {
			t.Fatalf("version %d = %v, want %v", i, v.ids, v.want)
		}
	}
}

// TestPostingWithRowBranches: withRow appends in place along a chain and
// never lets two successors of one posting list overwrite each other.
func TestPostingWithRowBranches(t *testing.T) {
	var p *postingList
	for row := 0; row < 10; row++ {
		p = p.withRow(row, 1)
	}
	p = p.withRow(10, 2)
	a := p.withRow(20, 3)
	b := p.withRow(30, 1)
	if len(p.rows) != 11 || p.rows[10] != 10 || p.counts[10] != 2 || p.maxCount != 2 {
		t.Fatalf("base changed: %+v", p)
	}
	if !slices.Equal(a.rows[9:], []int{9, 10, 20}) || !slices.Equal(a.counts[9:], []int{1, 2, 3}) || a.maxCount != 3 {
		t.Fatalf("first successor = %v %v max %d", a.rows, a.counts, a.maxCount)
	}
	if !slices.Equal(b.rows[9:], []int{9, 10, 30}) || !slices.Equal(b.counts[9:], []int{1, 2, 1}) || b.maxCount != 2 {
		t.Fatalf("second successor = %v %v max %d", b.rows, b.counts, b.maxCount)
	}
	if &a.rows[0] != &p.rows[0] || &b.rows[0] == &p.rows[0] {
		t.Fatal("want the first successor in place and the second copied")
	}
}
