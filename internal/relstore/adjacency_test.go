package relstore

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/durable"
)

// fkSchemas is the schema the adjacency tests mutate: a self-referencing
// FK (p.boss → p.id), an FK onto a non-unique column (c.pcode → p.code),
// and a link table l joining c and p.
var fkSchemas = []*TableSchema{
	{Name: "p", PrimaryKey: "id", Columns: []Column{{Name: "id"}, {Name: "code"}, {Name: "boss"}, {Name: "name", Indexed: true}},
		ForeignKeys: []ForeignKey{{Column: "boss", RefTable: "p", RefColumn: "id"}}},
	{Name: "c", PrimaryKey: "id", Columns: []Column{{Name: "id"}, {Name: "pid"}, {Name: "pcode"}, {Name: "note", Indexed: true}},
		ForeignKeys: []ForeignKey{
			{Column: "pid", RefTable: "p", RefColumn: "id"},
			{Column: "pcode", RefTable: "p", RefColumn: "code"},
		}},
	{Name: "l", PrimaryKey: "id", Columns: []Column{{Name: "id"}, {Name: "cid"}, {Name: "pid"}, {Name: "tag", Indexed: true}},
		ForeignKeys: []ForeignKey{
			{Column: "cid", RefTable: "c", RefColumn: "id"},
			{Column: "pid", RefTable: "p", RefColumn: "id"},
		}},
}

// fkModel mirrors the live rows of the adjacency test database by table
// and key, so that generated mutations always address live rows and
// never collide with a live key. pool is the number of keys per table;
// references are drawn from pool+2 keys (the last two never exist) and
// the empty string, so some always dangle.
type fkModel struct {
	pool int
	rows map[string]map[string][]string
}

func (m *fkModel) key(table string, i int) string { return fmt.Sprintf("%s%d", table, i) }

func (m *fkModel) ref(table string, next func(int) int) string {
	if i := next(m.pool + 3); i < m.pool+2 {
		return m.key(table, i)
	}
	return ""
}

// row draws a full value list for the table under the given key.
func (m *fkModel) row(table, key string, next func(int) int) []string {
	words := []string{"alpha", "beta", "gamma alpha"}
	codes := []string{"k0", "k1", "k2", ""}
	switch table {
	case "p":
		return []string{key, codes[next(len(codes))], m.ref("p", next), words[next(len(words))]}
	case "c":
		return []string{key, m.ref("p", next), codes[next(len(codes))], words[next(len(words))]}
	default:
		return []string{key, m.ref("c", next), m.ref("p", next), words[next(len(words))]}
	}
}

// liveKey picks a live key of the table, or "" when it has none.
func (m *fkModel) liveKey(table string, next func(int) int) string {
	keys := make([]string, 0, len(m.rows[table]))
	for k := range m.rows[table] {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return ""
	}
	slices.Sort(keys)
	return keys[next(len(keys))]
}

// freeKey picks a key of the table's pool that is not live, or "".
func (m *fkModel) freeKey(table string, next func(int) int) string {
	k := m.key(table, next(m.pool))
	if _, live := m.rows[table][k]; live {
		return ""
	}
	return k
}

// mutation draws one mutation that is valid against the model and
// applies it to the model; ok is false when the draw found nothing to do.
func (m *fkModel) mutation(next func(int) int) (mu Mutation, ok bool) {
	table := []string{"p", "c", "l"}[next(3)]
	rows := m.rows[table]
	switch next(3) {
	case 0:
		k := m.freeKey(table, next)
		if k == "" {
			return Mutation{}, false
		}
		rows[k] = m.row(table, k, next)
		return Mutation{Op: OpInsert, Table: table, Values: rows[k]}, true
	case 1:
		k := m.liveKey(table, next)
		if k == "" {
			return Mutation{}, false
		}
		delete(rows, k)
		return Mutation{Op: OpDelete, Table: table, Key: k}, true
	default:
		k := m.liveKey(table, next)
		if k == "" {
			return Mutation{}, false
		}
		vals := slices.Clone(rows[k])
		switch next(4) {
		case 0: // re-key: every FK onto the key column moves
			nk := m.freeKey(table, next)
			if nk == "" {
				return Mutation{}, false
			}
			vals[0] = nk
		case 1: // one join column
			fresh := m.row(table, k, next)
			col := 1 + next(2)
			vals[col] = fresh[col]
		case 2: // the text column only
			vals[3] += " delta"
		default:
			vals = m.row(table, k, next)
		}
		delete(rows, k)
		rows[vals[0]] = vals
		return Mutation{Op: OpUpdate, Table: table, Key: k, Values: vals}, true
	}
}

// fkTestDB builds the adjacency test schema with random rows through
// Table.Insert: about half of each pool's keys, references dangling now
// and then. Nothing is prepared.
func fkTestDB(t testing.TB, pool int, next func(int) int) (*Database, *fkModel) {
	t.Helper()
	db := NewDatabase("fk")
	m := &fkModel{pool: pool, rows: map[string]map[string][]string{}}
	for _, s := range fkSchemas {
		tab, err := db.CreateTable(s)
		if err != nil {
			t.Fatal(err)
		}
		m.rows[s.Name] = map[string][]string{}
		for i := 0; i < pool; i++ {
			if next(2) == 0 {
				continue
			}
			k := m.key(s.Name, i)
			m.rows[s.Name][k] = m.row(s.Name, k, next)
			if _, err := tab.Insert(m.rows[s.Name][k]...); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.ValidateRefs(); err != nil {
		t.Fatal(err)
	}
	return db, m
}

// checkAdjacency verifies the database's stored adjacencies — without
// building anything — against the equality indexes: for every declared
// FK C.col → P.ref, every C row's up list is the ascending
// P.LookupEqual(ref, its col) and every P row's down list the ascending
// C.LookupEqual(col, its ref); tombstoned rows have no partners.
func checkAdjacency(db *Database) error {
	s := db.fks.set.Load()
	if s == nil || !s.fresh(len(db.order)) {
		return errors.New("no current adjacency stored")
	}
	side := func(name string, from *Table, fromCol int, to *Table, toCol string, adj *adjacency) error {
		if adj == nil {
			return fmt.Errorf("%s: no adjacency", name)
		}
		for id := 0; id < from.Len(); id++ {
			var want []int32
			if from.Live(id) {
				want = int32s(SortedCopy(to.LookupEqual(toCol, from.slot(id).Values[fromCol])))
			}
			if got := adj.partners(id); !slices.Equal(got, want) {
				return fmt.Errorf("%s row %d: partners %v, index %v", name, id, got, want)
			}
		}
		return nil
	}
	for _, c := range db.Tables() {
		for _, fk := range c.Schema.ForeignKeys {
			p := db.Table(fk.RefTable)
			col, ref := c.Schema.ColumnIndex(fk.Column), p.Schema.ColumnIndex(fk.RefColumn)
			name := fmt.Sprintf("%s.%s→%s.%s", c.Schema.Name, fk.Column, p.Schema.Name, fk.RefColumn)
			if err := side(name+" up", c, col, p, fk.RefColumn, joinAdjacency(s.links, c, col, p, ref)); err != nil {
				return err
			}
			if err := side(name+" down", p, ref, c, fk.Column, joinAdjacency(s.links, p, ref, c, col)); err != nil {
				return err
			}
		}
	}
	return nil
}

// adjacencySnapshot copies every partner list the database stores.
func adjacencySnapshot(db *Database) [][]int32 {
	var out [][]int32
	for _, l := range db.fks.set.Load().links {
		for _, a := range []*adjacency{&l.up, &l.down} {
			for id := 0; id < len(a.chunks)*chunkSize; id++ {
				out = append(out, slices.Clone(a.partners(id)))
			}
		}
	}
	return out
}

// reopen round-trips the database through the physical snapshot codec
// and prepares the result, as the engine's Open does.
func reopen(t testing.TB, db *Database) *Database {
	t.Helper()
	var enc durable.Enc
	db.EncodeSnapshot(&enc, EncodeOptions{Physical: true})
	odb, err := DecodeSnapshot(durable.NewDec(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	odb.Prepare()
	return odb
}

// runFKBatches applies up to n random batches drawn from next to db,
// checking the adjacency of every successor and that every predecessor
// still reads exactly as before, and returns the last database.
func runFKBatches(t testing.TB, db *Database, m *fkModel, n int, next func(int) int) *Database {
	t.Helper()
	for b := 0; b < n; b++ {
		var muts []Mutation
		for k := 1 + next(6); k > 0; k-- {
			if mu, ok := m.mutation(next); ok {
				muts = append(muts, mu)
			}
		}
		if len(muts) == 0 {
			continue
		}
		before := adjacencySnapshot(db)
		ndb, _, err := db.Apply(muts)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if !reflect.DeepEqual(adjacencySnapshot(db), before) {
			t.Fatalf("batch %d changed its predecessor's adjacency", b)
		}
		if err := checkAdjacency(ndb); err != nil {
			t.Fatalf("batch %d %v: %v", b, muts, err)
		}
		db = ndb
	}
	return db
}

// TestFKAdjacencyMatchesIndex is the differential test of the foreign-key
// adjacency: after Prepare, after every random Apply batch (inserts,
// deletes and updates of parent, child and link rows, dangling
// references, re-inserted keys, re-keyed rows and FK-column updates),
// after compaction and after a snapshot round trip, every FK's up and
// down lists equal the ascending equality-index lookups, on tables of a
// few rows and on tables spanning several row chunks.
func TestFKAdjacencyMatchesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 24; iter++ {
		pool, batches := 12, 40
		if iter%4 == 3 {
			pool, batches = 3*chunkSize, 60
		}
		db, m := fkTestDB(t, pool, rng.Intn)
		db.Prepare()
		if err := checkAdjacency(db); err != nil {
			t.Fatalf("iter %d after Prepare: %v", iter, err)
		}
		db = runFKBatches(t, db, m, batches, rng.Intn)
		cdb := db.CompactTables(db.TableNames())
		if err := checkAdjacency(cdb); err != nil {
			t.Fatalf("iter %d after compaction: %v", iter, err)
		}
		cdb.Prepare()
		if err := checkAdjacency(cdb); err != nil {
			t.Fatalf("iter %d after compaction and Prepare: %v", iter, err)
		}
		if err := checkAdjacency(reopen(t, db)); err != nil {
			t.Fatalf("iter %d after reopening: %v", iter, err)
		}
	}
}

// TestFKAdjacencyLazyAndStale: a database that was never prepared builds
// its adjacency on first use, and a table grown by Table.Insert after the
// adjacency was built gets it rebuilt — reusing the links the insert did
// not touch.
func TestFKAdjacencyLazyAndStale(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db, m := fkTestDB(t, 20, rng.Intn)
	if db.fks.set.Load() != nil {
		t.Fatal("adjacency built before first use")
	}
	plan := &JoinPlan{
		Nodes: []JoinNode{{Table: "l"}, {Table: "c"}},
		Edges: []JoinEdge{{From: 0, To: 1, FromColumn: "cid", ToColumn: "id"}},
	}
	if _, err := db.Execute(plan, ExecuteOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := checkAdjacency(db); err != nil {
		t.Fatal(err)
	}
	before := db.fks.set.Load().links
	k := m.freeKey("l", func(int) int { return 0 })
	if k == "" {
		k = "lnew"
	}
	if _, err := db.Table("l").Insert(m.row("l", k, rng.Intn)...); err != nil {
		t.Fatal(err)
	}
	after := db.linkSet().links
	if err := checkAdjacency(db); err != nil {
		t.Fatalf("after a load-phase insert: %v", err)
	}
	for i, l := range after {
		touches := l.child.Schema.Name == "l" || l.parent.Schema.Name == "l"
		if (l != before[i]) != touches {
			t.Errorf("link %s→%s: rebuilt %v, touches l %v", l.child.Schema.Name, l.parent.Schema.Name, l != before[i], touches)
		}
	}
}

// TestCompileRejectsNonFKEdge: an edge must be a declared foreign key in
// one direction or the other; either direction of one executes exactly
// as the scan reference.
func TestCompileRejectsNonFKEdge(t *testing.T) {
	db, _ := fkTestDB(t, 40, rand.New(rand.NewSource(9)).Intn)
	for _, e := range []JoinEdge{
		{From: 0, To: 1, FromColumn: "name", ToColumn: "note"},
		{From: 0, To: 1, FromColumn: "code", ToColumn: "pid"},
		{From: 0, To: 1, FromColumn: "id", ToColumn: "id"},
	} {
		plan := &JoinPlan{Nodes: []JoinNode{{Table: "p"}, {Table: "c"}}, Edges: []JoinEdge{e}}
		if _, err := db.Compile(plan); err == nil || !strings.Contains(err.Error(), "not a declared foreign key") {
			t.Errorf("edge %+v: Compile error %v", e, err)
		}
	}
	for _, plan := range []*JoinPlan{
		{Nodes: []JoinNode{{Table: "p"}, {Table: "c"}}, Edges: []JoinEdge{{From: 0, To: 1, FromColumn: "id", ToColumn: "pid"}}},
		{Nodes: []JoinNode{{Table: "p"}, {Table: "c"}}, Edges: []JoinEdge{{From: 1, To: 0, FromColumn: "pcode", ToColumn: "code"}}},
		{Nodes: []JoinNode{{Table: "p"}, {Table: "p"}}, Edges: []JoinEdge{{From: 0, To: 1, FromColumn: "boss", ToColumn: "id"}}},
		{Nodes: []JoinNode{{Table: "p"}, {Table: "p"}}, Edges: []JoinEdge{{From: 0, To: 1, FromColumn: "id", ToColumn: "boss"}}},
	} {
		got, err := db.Execute(plan, ExecuteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := db.ExecuteScan(plan, ExecuteOptions{})
		if !sameJTTs(got, want) || len(want) == 0 {
			t.Errorf("plan %+v: %v, scan %v", plan.Edges, got, want)
		}
	}
}

// fkPlans joins along every FK of the adjacency test schema, the
// self-reference and the link table included.
var fkPlans = []*JoinPlan{
	{Nodes: []JoinNode{{Table: "c"}, {Table: "p", Predicates: []Predicate{{Column: "name", Keywords: []string{"alpha"}}}}},
		Edges: []JoinEdge{{From: 0, To: 1, FromColumn: "pid", ToColumn: "id"}}},
	{Nodes: []JoinNode{{Table: "p"}, {Table: "c", Predicates: []Predicate{{Column: "note", Keywords: []string{"beta"}}}}},
		Edges: []JoinEdge{{From: 1, To: 0, FromColumn: "pcode", ToColumn: "code"}}},
	{Nodes: []JoinNode{{Table: "p"}, {Table: "p", Predicates: []Predicate{{Column: "name", Keywords: []string{"gamma"}}}}},
		Edges: []JoinEdge{{From: 0, To: 1, FromColumn: "boss", ToColumn: "id"}}},
	{Nodes: []JoinNode{{Table: "p", Predicates: []Predicate{{Column: "name", Keywords: []string{"beta"}}}}, {Table: "l"}, {Table: "c"}},
		Edges: []JoinEdge{{From: 1, To: 0, FromColumn: "pid", ToColumn: "id"}, {From: 1, To: 2, FromColumn: "cid", ToColumn: "id"}}},
}

// TestFKAdjacencyConcurrentExecuteDuringApply: readers execute every
// plan against the first database — never prepared, so they race its
// lazy build — and against the latest published one while a writer
// chains Apply batches; every result equals the scan reference of its
// own snapshot. Run under -race.
func TestFKAdjacencyConcurrentExecuteDuringApply(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	db, m := fkTestDB(t, chunkSize+40, rng.Intn)
	type version struct {
		db   *Database
		want [][]JTT
	}
	snap := func(db *Database) *version {
		v := &version{db: db}
		for _, p := range fkPlans {
			w, err := db.ExecuteScan(p, ExecuteOptions{})
			if err != nil {
				t.Fatal(err)
			}
			v.want = append(v.want, w)
		}
		return v
	}
	first := snap(db)
	var latest atomic.Pointer[version]
	latest.Store(first)
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := 0; !stop.Load() || n < 3; n++ {
				v := first
				if (r+n)%2 == 1 {
					v = latest.Load()
				}
				for i, p := range fkPlans {
					got, err := v.db.Execute(p, ExecuteOptions{})
					if err == nil && !sameJTTs(got, v.want[i]) {
						err = fmt.Errorf("plan %d: %d results, want %d", i, len(got), len(v.want[i]))
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}(r)
	}
	cur := db
	for b := 0; b < 30; b++ {
		var muts []Mutation
		for k := 1 + rng.Intn(4); k > 0; k-- {
			if mu, ok := m.mutation(rng.Intn); ok {
				muts = append(muts, mu)
			}
		}
		if len(muts) == 0 {
			continue
		}
		ndb, _, err := cur.Apply(muts)
		if err != nil {
			t.Fatal(err)
		}
		cur = ndb
		latest.Store(snap(cur))
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := checkAdjacency(cur); err != nil {
		t.Fatal(err)
	}
}

// FuzzFKAdjacency drives the adjacency differential from fuzz bytes: the
// bytes choose the initial rows and every mutation, and after every
// batch the stored adjacency must equal the equality indexes, the
// predecessor must read as before, and a snapshot round trip must agree.
func FuzzFKAdjacency(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte("\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c"))
	f.Add([]byte("\xff\x00\xff\x00\x13\x37\x42\x99\x10\x20\x30\x40\x50\x60\x70\x80\x90"))
	rng := rand.New(rand.NewSource(1))
	seed := make([]byte, 512)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		}
		db, m := fkTestDB(t, 6, next)
		if next(2) == 0 {
			db.Prepare()
		} else {
			db.linkSet()
		}
		if err := checkAdjacency(db); err != nil {
			t.Fatalf("initial: %v", err)
		}
		db = runFKBatches(t, db, m, 1+len(data)/8, next)
		if err := checkAdjacency(reopen(t, db)); err != nil {
			t.Fatalf("after reopening: %v", err)
		}
	})
}
