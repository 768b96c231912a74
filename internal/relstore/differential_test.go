package relstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// Differential property tests: the posting-list engine must agree exactly
// — same rows, same order — with the retained scan reference on
// randomized tables, predicate bags (including duplicated keywords, empty
// bags, unknown and non-indexed columns), and join plans.

// diffVocab is small so that keyword matches, duplicate tokens within one
// value, and multi-keyword co-occurrence are all common.
var diffVocab = []string{"alpha", "beta", "gamma", "delta", "omega", "42", "7", "zz"}

// randValue builds one cell value of up to n vocabulary tokens, sometimes
// with punctuation and mixed case to exercise tokenization.
func randValue(rng *rand.Rand, n int) string {
	k := rng.Intn(n + 1)
	v := ""
	for i := 0; i < k; i++ {
		w := diffVocab[rng.Intn(len(diffVocab))]
		if rng.Intn(4) == 0 {
			w = "X" + w // prefix fused onto the token: different term
		}
		switch rng.Intn(3) {
		case 0:
			v += w + " "
		case 1:
			v += w + ", "
		default:
			v += w + "-"
		}
	}
	return v
}

// randBag builds a keyword bag of up to n keywords with frequent
// duplicates and occasional mixed case / junk keywords.
func randBag(rng *rand.Rand, n int) []string {
	k := rng.Intn(n + 1)
	bag := make([]string, 0, k)
	for i := 0; i < k; i++ {
		switch rng.Intn(6) {
		case 0:
			if len(bag) > 0 { // duplicate an earlier keyword
				bag = append(bag, bag[rng.Intn(len(bag))])
				continue
			}
			bag = append(bag, diffVocab[rng.Intn(len(diffVocab))])
		case 1:
			bag = append(bag, "ALPHA") // case-insensitivity
		case 2:
			bag = append(bag, "nosuchword")
		default:
			bag = append(bag, diffVocab[rng.Intn(len(diffVocab))])
		}
	}
	return bag
}

func TestDifferentialSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 400; iter++ {
		schema := &TableSchema{Name: "t", Columns: []Column{
			{Name: "a", Indexed: true},
			{Name: "b", Indexed: false}, // selections on non-indexed columns
			{Name: "c", Indexed: iter%2 == 0},
		}}
		tab := NewTable(schema)
		rows := rng.Intn(40)
		for i := 0; i < rows; i++ {
			if _, err := tab.Insert(randValue(rng, 6), randValue(rng, 3), randValue(rng, 2)); err != nil {
				t.Fatal(err)
			}
		}
		for _, col := range []string{"a", "b", "c", "missing"} {
			bag := randBag(rng, 4)
			postings := tab.SelectContains(col, bag)
			scan := tab.SelectContainsScan(col, bag)
			if !sameIDs(postings, scan) {
				t.Fatalf("iter %d: SelectContains(%q, %q) postings=%v scan=%v",
					iter, col, bag, postings, scan)
			}
			// Row-by-row oracle: ContainsBag on every value.
			if ci := schema.ColumnIndex(col); ci >= 0 {
				var oracle []int
				for _, r := range tab.Rows() {
					if ContainsBag(r.Values[ci], bag) {
						oracle = append(oracle, r.RowID)
					}
				}
				if !sameIDs(postings, oracle) {
					t.Fatalf("iter %d: SelectContains(%q, %q)=%v but ContainsBag rows=%v",
						iter, col, bag, postings, oracle)
				}
			}
		}
	}
}

// sameIDs treats nil and empty as equal and demands identical order.
func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randDiffDB builds a small randomized 3-table FK chain a ← b ← c with
// occasionally dangling references.
func randDiffDB(t *testing.T, rng *rand.Rand) *Database {
	t.Helper()
	db := NewDatabase("diff")
	mustCreate := func(s *TableSchema) *Table {
		tab, err := db.CreateTable(s)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	ta := mustCreate(&TableSchema{Name: "a", PrimaryKey: "id", Columns: []Column{
		{Name: "id"}, {Name: "text", Indexed: true},
	}})
	tb := mustCreate(&TableSchema{Name: "b", Columns: []Column{
		{Name: "a_id"}, {Name: "text", Indexed: true}, {Name: "extra"},
	}, ForeignKeys: []ForeignKey{{Column: "a_id", RefTable: "a", RefColumn: "id"}}})
	tc := mustCreate(&TableSchema{Name: "c", Columns: []Column{
		{Name: "a_id"}, {Name: "text", Indexed: true},
	}, ForeignKeys: []ForeignKey{{Column: "a_id", RefTable: "a", RefColumn: "id"}}})
	if err := db.ValidateRefs(); err != nil {
		t.Fatal(err)
	}
	na := 1 + rng.Intn(20)
	for i := 0; i < na; i++ {
		if _, err := ta.Insert(fmt.Sprintf("a%d", i), randValue(rng, 5)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rng.Intn(40); i++ {
		ref := fmt.Sprintf("a%d", rng.Intn(na+2)) // sometimes dangling
		if _, err := tb.Insert(ref, randValue(rng, 4), randValue(rng, 2)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < rng.Intn(30); i++ {
		ref := fmt.Sprintf("a%d", rng.Intn(na+2))
		if _, err := tc.Insert(ref, randValue(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// randDiffPlan builds a random valid plan over the chain schema: one of
// {a}, {a⋈b}, {a⋈c}, {b⋈a⋈c}, with random predicate sets per node.
func randDiffPlan(rng *rand.Rand) *JoinPlan {
	preds := func(table string) []Predicate {
		var out []Predicate
		for _, col := range []string{"text", "extra", "missing"} {
			switch {
			case rng.Intn(3) == 0:
				out = append(out, Predicate{Column: col, Keywords: randBag(rng, 3)})
			}
		}
		return out
	}
	switch rng.Intn(4) {
	case 0:
		return &JoinPlan{Nodes: []JoinNode{{Table: "a", Predicates: preds("a")}}}
	case 1:
		return &JoinPlan{
			Nodes: []JoinNode{
				{Table: "a", Predicates: preds("a")},
				{Table: "b", Predicates: preds("b")},
			},
			Edges: []JoinEdge{{From: 1, To: 0, FromColumn: "a_id", ToColumn: "id"}},
		}
	case 2:
		return &JoinPlan{
			Nodes: []JoinNode{
				{Table: "c", Predicates: preds("c")},
				{Table: "a", Predicates: preds("a")},
			},
			Edges: []JoinEdge{{From: 0, To: 1, FromColumn: "a_id", ToColumn: "id"}},
		}
	default:
		return &JoinPlan{
			Nodes: []JoinNode{
				{Table: "b", Predicates: preds("b")},
				{Table: "a", Predicates: preds("a")},
				{Table: "c", Predicates: preds("c")},
			},
			Edges: []JoinEdge{
				{From: 0, To: 1, FromColumn: "a_id", ToColumn: "id"},
				{From: 2, To: 1, FromColumn: "a_id", ToColumn: "id"},
			},
		}
	}
}

func TestDifferentialExecute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 150; iter++ {
		db := randDiffDB(t, rng)
		cache := NewSelectionCache() // shared across every plan of this db
		for p := 0; p < 8; p++ {
			plan := randDiffPlan(rng)
			limit := []int{0, 0, 1, 3}[rng.Intn(4)]
			opts := ExecuteOptions{Limit: limit}
			ref, err := db.ExecuteScan(plan, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := db.Execute(plan, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !sameJTTs(ref, got) {
				t.Fatalf("iter %d plan %d limit %d: scan=%v compiled=%v (plan %+v)",
					iter, p, limit, ref, got, plan)
			}
			cached, err := db.Execute(plan, ExecuteOptions{Limit: limit, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			if !sameJTTs(ref, cached) {
				t.Fatalf("iter %d plan %d limit %d: scan=%v cached=%v", iter, p, limit, ref, cached)
			}
			n, err := db.Count(plan, limit, cache)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(ref) {
				t.Fatalf("iter %d plan %d limit %d: Count=%d want %d", iter, p, limit, n, len(ref))
			}
		}
	}
}

func sameJTTs(a, b []JTT) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Rows, b[i].Rows) {
			return false
		}
	}
	return true
}

// TestCountNoJTTAllocations pins the allocation contract of Count: the
// counting recursion materialises nothing per result, so counting a plan
// with hundreds of results allocates the same small constant as counting
// one — while Execute's allocations grow with the result count.
func TestCountNoJTTAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := NewDatabase("alloc")
	ta, err := db.CreateTable(&TableSchema{Name: "a", PrimaryKey: "id", Columns: []Column{
		{Name: "id"}, {Name: "text", Indexed: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable(&TableSchema{Name: "b", Columns: []Column{
		{Name: "a_id"}, {Name: "text", Indexed: true},
	}, ForeignKeys: []ForeignKey{{Column: "a_id", RefTable: "a", RefColumn: "id"}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := ta.Insert(fmt.Sprintf("a%d", i), "alpha beta"); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 25; j++ {
			if _, err := tb.Insert(fmt.Sprintf("a%d", i), "gamma "+diffVocab[rng.Intn(len(diffVocab))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	plan := &JoinPlan{
		Nodes: []JoinNode{
			{Table: "a", Predicates: []Predicate{{Column: "text", Keywords: []string{"alpha"}}}},
			{Table: "b", Predicates: []Predicate{{Column: "text", Keywords: []string{"gamma"}}}},
		},
		Edges: []JoinEdge{{From: 1, To: 0, FromColumn: "a_id", ToColumn: "id"}},
	}
	db.Prepare()
	cp, err := db.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	full, err := cp.CountRows(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full != 500 {
		t.Fatalf("Count = %d, want 500", full)
	}
	// Each figure is the median of single-call samples. Under -race
	// sync.Pool drops a quarter of its Puts, and a call that finds the
	// pool empty pays for fresh scratch, more of it the more the plan
	// enumerates; the median is the call that found its scratch pooled.
	median := func(f func() error) float64 {
		samples := make([]float64, 51)
		for i := range samples {
			samples[i] = testing.AllocsPerRun(1, func() {
				if err := f(); err != nil {
					t.Fatal(err)
				}
			})
		}
		sort.Float64s(samples)
		return samples[len(samples)/2]
	}
	countAll := median(func() error { _, err := cp.CountRows(0, nil); return err })
	countOne := median(func() error { _, err := cp.CountRows(1, nil); return err })
	execAll := median(func() error { _, err := cp.Execute(ExecuteOptions{}); return err })
	// Counting 500 results must allocate no more than counting 1: the
	// per-result work is a counter increment. Execute, by contrast,
	// allocates at least one slice per materialised JTT.
	if countAll > countOne {
		t.Fatalf("Count allocations grow with results: all=%v one=%v", countAll, countOne)
	}
	if execAll < float64(full) {
		t.Fatalf("expected Execute to allocate per JTT (>= %d), got %v", full, execAll)
	}
}

func mustCreateTable(t *testing.T, db *Database, s *TableSchema) *Table {
	t.Helper()
	tab, err := db.CreateTable(s)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func mustInsert(t *testing.T, tab *Table, vals ...string) {
	t.Helper()
	if _, err := tab.Insert(vals...); err != nil {
		t.Fatal(err)
	}
}

// randDeepDB builds a randomized FK tree p ← q ← {r, s} — deep enough for
// a root candidate's partners to die two levels below it — and then
// tombstones a random share of p, q and r rows. With deadEnds most r and
// s values carry no vocabulary token, so predicates on them leave most of
// the rows above without a completable partner.
func randDeepDB(t *testing.T, rng *rand.Rand, deadEnds bool) *Database {
	t.Helper()
	db := NewDatabase("deep")
	create := func(s *TableSchema) *Table { return mustCreateTable(t, db, s) }
	tp := create(&TableSchema{Name: "p", PrimaryKey: "id", Columns: []Column{{Name: "id"}, {Name: "text", Indexed: true}}})
	tq := create(&TableSchema{Name: "q", PrimaryKey: "id", Columns: []Column{{Name: "id"}, {Name: "p_id"}, {Name: "text", Indexed: true}},
		ForeignKeys: []ForeignKey{{Column: "p_id", RefTable: "p", RefColumn: "id"}}})
	tr := create(&TableSchema{Name: "r", PrimaryKey: "id", Columns: []Column{{Name: "id"}, {Name: "q_id"}, {Name: "text", Indexed: true}},
		ForeignKeys: []ForeignKey{{Column: "q_id", RefTable: "q", RefColumn: "id"}}})
	ts := create(&TableSchema{Name: "s", Columns: []Column{{Name: "q_id"}, {Name: "text", Indexed: true}},
		ForeignKeys: []ForeignKey{{Column: "q_id", RefTable: "q", RefColumn: "id"}}})
	leafText := func() string {
		if deadEnds && rng.Intn(8) != 0 {
			return "none"
		}
		return randValue(rng, 3)
	}
	insert := func(tab *Table, vals ...string) { mustInsert(t, tab, vals...) }
	np, nq := 1+rng.Intn(12), 1+rng.Intn(90)
	for i := 0; i < np; i++ {
		insert(tp, fmt.Sprintf("p%d", i), randValue(rng, 4))
	}
	for i := 0; i < nq; i++ {
		insert(tq, fmt.Sprintf("q%d", i), fmt.Sprintf("p%d", rng.Intn(np+1)), randValue(rng, 3))
	}
	nr := rng.Intn(150)
	for i := 0; i < nr; i++ {
		insert(tr, fmt.Sprintf("r%d", i), fmt.Sprintf("q%d", rng.Intn(nq+1)), leafText())
	}
	for i := 0; i < rng.Intn(40); i++ {
		insert(ts, fmt.Sprintf("q%d", rng.Intn(nq+1)), leafText())
	}
	if err := db.ValidateRefs(); err != nil {
		t.Fatal(err)
	}
	var dels []Mutation
	for _, tab := range []struct {
		name string
		n    int
	}{{"p", np}, {"q", nq}, {"r", nr}} {
		for i := 0; i < tab.n; i++ {
			if rng.Intn(6) == 0 {
				dels = append(dels, Mutation{Op: OpDelete, Table: tab.name, Key: fmt.Sprintf("%s%d", tab.name, i)})
			}
		}
	}
	if len(dels) == 0 {
		return db
	}
	ndb, _, err := db.Apply(dels)
	if err != nil {
		t.Fatal(err)
	}
	return ndb
}

// randDeepPlan builds a random join tree over randDeepDB's schema: the
// path p–q–r, the star around q (branching), the self-join r–q–r with and
// without p, in random node and edge declaration order. Each node is
// unconstrained (a connector) about half the time.
func randDeepPlan(rng *rand.Rand) *JoinPlan {
	type link struct{ a, b int } // b's table references a's: b.<a>_id = a.id
	var tables []string
	var links []link
	switch rng.Intn(4) {
	case 0:
		tables, links = []string{"p", "q", "r"}, []link{{0, 1}, {1, 2}}
	case 1:
		tables, links = []string{"q", "p", "r", "s"}, []link{{1, 0}, {0, 2}, {0, 3}}
	case 2:
		tables, links = []string{"r", "q", "r"}, []link{{1, 0}, {1, 2}}
	default:
		tables, links = []string{"r", "q", "r", "p"}, []link{{1, 0}, {1, 2}, {3, 1}}
	}
	perm := rng.Perm(len(tables))
	plan := &JoinPlan{Nodes: make([]JoinNode, len(tables))}
	for i, name := range tables {
		node := JoinNode{Table: name}
		if rng.Intn(2) == 0 {
			node.Predicates = []Predicate{{Column: "text", Keywords: randBag(rng, 2)}}
		}
		plan.Nodes[perm[i]] = node
	}
	rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	for _, l := range links {
		e := JoinEdge{From: perm[l.b], To: perm[l.a], FromColumn: tables[l.a] + "_id", ToColumn: "id"}
		if rng.Intn(2) == 0 {
			e = JoinEdge{From: e.To, To: e.From, FromColumn: e.ToColumn, ToColumn: e.FromColumn}
		}
		plan.Edges = append(plan.Edges, e)
	}
	return plan
}

// TestDifferentialExecuteSweep pins the demand-driven executor to the
// scan reference over deep, branching, self-joining, tombstoned and
// dead-end-heavy data: every limit, collecting and counting.
func TestDifferentialExecuteSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	nonEmpty := 0
	for iter := 0; iter < 120; iter++ {
		db := randDeepDB(t, rng, iter%2 == 1)
		cache := NewSelectionCache()
		for p := 0; p < 6; p++ {
			plan := randDeepPlan(rng)
			cp, err := db.Compile(plan)
			if err != nil {
				t.Fatal(err)
			}
			for _, limit := range []int{0, 1, 2, 40} {
				ref, err := db.ExecuteScan(plan, ExecuteOptions{Limit: limit})
				if err != nil {
					t.Fatal(err)
				}
				nonEmpty += len(ref)
				got, _ := cp.Execute(ExecuteOptions{Limit: limit, Cache: cache})
				if !sameJTTs(ref, got) {
					t.Fatalf("iter %d plan %d limit %d: scan=%v compiled=%v (plan %+v)", iter, p, limit, ref, got, plan)
				}
				if n, _ := cp.CountRows(limit, cache); n != len(ref) {
					t.Fatalf("iter %d plan %d limit %d: CountRows=%d want %d", iter, p, limit, n, len(ref))
				}
			}
		}
	}
	if nonEmpty < 1000 {
		t.Fatalf("sweep is vacuous: only %d reference results", nonEmpty)
	}
}

// chainDB builds r → q → p with nr "hit" rows in r spread over the first
// shared rows of q, every q row referencing a "dead" p row except those
// the alive func names, and more "alive" p rows and more q rows than r
// has hits — so the plan r(hit)–q–p(alive) is rooted at r.
func chainDB(t *testing.T, nr, shared int, alive func(q int) bool) (*Database, *JoinPlan) {
	t.Helper()
	db := NewDatabase("chain")
	create := func(s *TableSchema) *Table { return mustCreateTable(t, db, s) }
	tp := create(&TableSchema{Name: "p", PrimaryKey: "id", Columns: []Column{{Name: "id"}, {Name: "text", Indexed: true}}})
	tq := create(&TableSchema{Name: "q", PrimaryKey: "id", Columns: []Column{{Name: "id"}, {Name: "p_id"}},
		ForeignKeys: []ForeignKey{{Column: "p_id", RefTable: "p", RefColumn: "id"}}})
	tr := create(&TableSchema{Name: "r", Columns: []Column{{Name: "q_id"}, {Name: "text", Indexed: true}},
		ForeignKeys: []ForeignKey{{Column: "q_id", RefTable: "q", RefColumn: "id"}}})
	insert := func(tab *Table, vals ...string) { mustInsert(t, tab, vals...) }
	insert(tp, "dead", "dead")
	for i := 0; i < nr+2; i++ {
		insert(tp, fmt.Sprintf("p%d", i), "alive")
	}
	for i := 0; i < nr+1; i++ {
		ref := "dead"
		if alive(i) {
			ref = fmt.Sprintf("p%d", i)
		}
		insert(tq, fmt.Sprintf("q%d", i), ref)
	}
	for i := 0; i < nr; i++ {
		insert(tr, fmt.Sprintf("q%d", i%shared), "hit")
	}
	db.Prepare()
	return db, &JoinPlan{
		Nodes: []JoinNode{
			{Table: "r", Predicates: []Predicate{{Column: "text", Keywords: []string{"hit"}}}},
			{Table: "q"},
			{Table: "p", Predicates: []Predicate{{Column: "text", Keywords: []string{"alive"}}}},
		},
		Edges: []JoinEdge{
			{From: 0, To: 1, FromColumn: "q_id", ToColumn: "id"},
			{From: 1, To: 2, FromColumn: "p_id", ToColumn: "id"},
		},
	}
}

// TestDeadEndsResolvedOnce is the worst-case guard of the demand-driven
// semi-join: when every root candidate is a dead end the run examines
// each root row's partner once and resolves each connector row below it
// once, however many root rows share it — never root rows × depth.
func TestDeadEndsResolvedOnce(t *testing.T) {
	const nr, shared = 400, 8
	db, plan := chainDB(t, nr, shared, func(int) bool { return false })
	cp, err := db.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	sels, ok := cp.prove(nil, nil)
	if !ok {
		t.Fatal("selections of the dead-end plan proved empty")
	}
	r := runPool.Get().(*planRun)
	defer r.release()
	if root := r.run(cp, sels, 0, true); root != 0 {
		t.Fatalf("root = %d, want the r node", root)
	}
	if r.count != 0 || len(r.results) != 0 {
		t.Fatalf("dead-end plan produced %d results", r.count)
	}
	// One q partner per root row, one p partner per distinct q row.
	if want := nr + shared; r.probes != want {
		t.Fatalf("probes = %d, want %d (each (node,row) resolved once)", r.probes, want)
	}
}

// TestCountOneAllocationIndependentOfTableSize: an emptiness probe on a
// non-empty plan must not pay for the tables it does not touch. The
// median call allocates the same bytes over tables eight times the size
// (the median, because the race detector makes sync.Pool drop a quarter
// of what it is handed).
func TestCountOneAllocationIndependentOfTableSize(t *testing.T) {
	medianBytes := func(nr int) uint64 {
		db, plan := chainDB(t, nr, 8, func(int) bool { return true })
		cp, err := db.Compile(plan)
		if err != nil {
			t.Fatal(err)
		}
		cache := NewSelectionCache()
		samples := make([]uint64, 51)
		var before, after runtime.MemStats
		for i := -3; i < len(samples); i++ {
			runtime.ReadMemStats(&before)
			n, err := cp.CountRows(1, cache)
			runtime.ReadMemStats(&after)
			if err != nil || n != 1 {
				t.Fatalf("CountRows(1) = %d, %v", n, err)
			}
			if i >= 0 { // the first calls warm the selection cache and the pool
				samples[i] = after.TotalAlloc - before.TotalAlloc
			}
		}
		sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
		return samples[len(samples)/2]
	}
	small, large := medianBytes(2_000), medianBytes(16_000)
	if large > small {
		t.Fatalf("CountRows(1) allocates %d B over 2k-row tables but %d B over 16k-row tables", small, large)
	}
}
