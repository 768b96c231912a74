package relstore

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// countingStore is a SharedStore that keeps plan and count entries and
// counts every plan and count call, so a test sees exactly which
// answer-cache work a plan paid for. Selections always miss.
type countingStore struct {
	plans  map[string][][]int
	counts map[string]int
	// calls: GetPlan, PutPlan, GetCount, PutCount.
	calls [4]int
}

func newCountingStore() *countingStore {
	return &countingStore{plans: map[string][][]int{}, counts: map[string]int{}}
}

func (s *countingStore) GetSelection(string, int, string) ([]int, bool) { return nil, false }
func (s *countingStore) PutSelection(string, int, string, []int)        {}

func (s *countingStore) GetPlan(key string) ([][]int, bool) {
	s.calls[0]++
	rows, ok := s.plans[key]
	return rows, ok
}

func (s *countingStore) PutPlan(key string, _ []Attr, rows [][]int) {
	s.calls[1]++
	s.plans[key] = rows
}

func (s *countingStore) GetCount(key string) (int, bool) {
	s.calls[2]++
	n, ok := s.counts[key]
	return n, ok
}

func (s *countingStore) PutCount(key string, _ []Attr, n int) {
	s.calls[3]++
	s.counts[key] = n
}

// withKeywords returns hanksTerminalPlan with the movie title bag
// replaced.
func withKeywords(title ...string) *JoinPlan {
	p := hanksTerminalPlan()
	p.Nodes[2].Predicates = []Predicate{{Column: "title", Keywords: title}}
	return p
}

// TestProvenEmptyPlanTouchesNoAnswerCache: a plan with an empty keyword
// selection returns what the scan returns without one plan or count
// lookup or entry; a plan whose selections are all non-empty — whether
// or not its join is — still makes one Get and one Put per call kind.
func TestProvenEmptyPlanTouchesNoAnswerCache(t *testing.T) {
	db := movieDB(t)
	db.Prepare()
	unknownCol := hanksTerminalPlan()
	unknownCol.Nodes[0].Predicates = append(unknownCol.Nodes[0].Predicates, Predicate{Column: "nosuchcolumn", Keywords: []string{"tom"}})
	for _, tc := range []struct {
		name  string
		plan  *JoinPlan
		calls int
	}{
		{"empty selection", withKeywords("nosuchword"), 0},
		{"empty intersection", withKeywords("terminal", "sky"), 0},
		{"unknown column", unknownCol, 0},
		{"non-empty", hanksTerminalPlan(), 1},
		{"empty join", withKeywords("sky"), 1},
	} {
		cp, err := db.Compile(tc.plan)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := db.ExecuteScan(tc.plan, ExecuteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		store := newCountingStore()
		got, _ := cp.Execute(ExecuteOptions{Cache: NewSelectionCacheShared(store)})
		if !sameJTTs(ref, got) {
			t.Fatalf("%s: Execute = %v, scan = %v", tc.name, got, ref)
		}
		if n, _ := cp.CountRows(0, NewSelectionCacheShared(store)); n != len(ref) {
			t.Fatalf("%s: CountRows = %d, scan has %d", tc.name, n, len(ref))
		}
		c := tc.calls
		if want := [4]int{c, c, c, c}; store.calls != want {
			t.Fatalf("%s: GetPlan/PutPlan/GetCount/PutCount calls = %v, want %v", tc.name, store.calls, want)
		}
	}
}

// TestProvenEmptyPlanAllocatesNothing: once the request's selection
// cache holds the empty selection, running the proven-empty plan
// allocates nothing — no key, no footprint, no scratch.
func TestProvenEmptyPlanAllocatesNothing(t *testing.T) {
	db := movieDB(t)
	db.Prepare()
	cp, err := db.Compile(withKeywords("nosuchword"))
	if err != nil {
		t.Fatal(err)
	}
	cache := NewSelectionCacheShared(newCountingStore())
	if got, _ := cp.Execute(ExecuteOptions{Cache: cache}); len(got) != 0 {
		t.Fatalf("empty plan returned %v", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		cp.Execute(ExecuteOptions{Cache: cache, Limit: 3})
		cp.CountRows(1, cache)
	})
	if allocs != 0 {
		t.Fatalf("proven-empty plan allocates %v times per run, want 0", allocs)
	}
}

// refCacheKey and refFootprint are the reference encodings: the
// straightforward string-sorting and map-deduplicating forms of
// cacheKey and footprint. Persisted answer-cache sections are keyed by
// these bytes, so the buffer-building versions must agree exactly.
func refCacheKey(cp *CompiledPlan, limit int) string {
	var b strings.Builder
	for i := range cp.nodes {
		node := &cp.nodes[i]
		b.WriteString("\x01")
		b.WriteString(node.table.Schema.Name)
		preds := make([]string, len(node.preds))
		for j, p := range node.preds {
			preds[j] = strconv.Itoa(p.col) + "\x03" + CanonicalBag(p.keywords)
		}
		sort.Strings(preds)
		for _, p := range preds {
			b.WriteString("\x02")
			b.WriteString(p)
		}
	}
	b.WriteString("\x04")
	for _, e := range cp.Source.Edges {
		fi := cp.nodes[e.From].table.Schema.ColumnIndex(e.FromColumn)
		ti := cp.nodes[e.To].table.Schema.ColumnIndex(e.ToColumn)
		b.WriteString("\x02")
		b.WriteString(strconv.Itoa(e.From) + "," + strconv.Itoa(fi) + "," +
			strconv.Itoa(e.To) + "," + strconv.Itoa(ti))
	}
	b.WriteString("\x05")
	b.WriteString(strconv.Itoa(limit))
	return b.String()
}

func refFootprint(cp *CompiledPlan) []Attr {
	seen := make(map[Attr]bool)
	var out []Attr
	add := func(a Attr) {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	for i := range cp.nodes {
		node := &cp.nodes[i]
		name := node.table.Schema.Name
		if len(node.preds) == 0 {
			add(Attr{Table: name, Col: MembershipCol})
		}
		for _, p := range node.preds {
			if p.col >= 0 {
				add(Attr{Table: name, Col: p.col})
			}
		}
		for _, he := range cp.adj[i] {
			add(Attr{Table: name, Col: he.fromCol})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Col < out[j].Col
	})
	return out
}

// wideDB is one self-referencing table with twelve columns, so predicate
// columns 9, 10 and 11 order differently as numbers and as key bytes.
func wideDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("wide")
	cols := []Column{{Name: "id"}}
	for i := 1; i < 11; i++ {
		cols = append(cols, Column{Name: fmt.Sprintf("c%d", i), Indexed: i%2 == 0})
	}
	cols = append(cols, Column{Name: "boss"})
	tab := mustCreateTable(t, db, &TableSchema{Name: "w", PrimaryKey: "id", Columns: cols,
		ForeignKeys: []ForeignKey{{Column: "boss", RefTable: "w", RefColumn: "id"}}})
	vals := make([]string, len(cols))
	for i := range vals {
		vals[i] = "alpha"
	}
	vals[0], vals[len(vals)-1] = "w0", "w0"
	mustInsert(t, tab, vals...)
	db.Prepare()
	return db
}

// widePlans are multi-predicate self-joins over wideDB: duplicated
// columns, unknown columns, empty bags, mixed case, non-ASCII and bags
// longer than the inline keyword buffer.
func widePlans() []*JoinPlan {
	long := strings.Fields("k j i h g f e d c b a Z")
	nodes := [][]Predicate{
		{{Column: "c10", Keywords: []string{"Beta"}}, {Column: "c9", Keywords: []string{"alpha", "ALPHA"}}, {Column: "c2", Keywords: long}},
		{{Column: "boss", Keywords: []string{"Ärger", "zz"}}, {Column: "c10", Keywords: []string{"Beta"}}, {Column: "nosuch", Keywords: []string{"x"}}},
		{{Column: "c1", Keywords: nil}, {Column: "c10", Keywords: []string{"b", "a"}}, {Column: "c10", Keywords: []string{"a", "B"}}},
		nil,
	}
	var out []*JoinPlan
	for i, a := range nodes {
		b := nodes[(i+1)%len(nodes)]
		out = append(out,
			&JoinPlan{Nodes: []JoinNode{{Table: "w", Predicates: a}}},
			&JoinPlan{Nodes: []JoinNode{{Table: "w", Predicates: a}, {Table: "w", Predicates: b}},
				Edges: []JoinEdge{{From: 0, To: 1, FromColumn: "boss", ToColumn: "id"}}},
			&JoinPlan{Nodes: []JoinNode{{Table: "w", Predicates: b}, {Table: "w", Predicates: a}, {Table: "w"}},
				Edges: []JoinEdge{{From: 1, To: 0, FromColumn: "id", ToColumn: "boss"}, {From: 2, To: 1, FromColumn: "boss", ToColumn: "id"}}})
	}
	return out
}

// TestCacheKeyAndFootprintMatchReference pins cacheKey and footprint to
// the reference encodings over the FK plans, the differential sweeps'
// random plans (self-joins, connectors, duplicate and mixed-case
// keywords, unknown columns) and wideDB's multi-predicate self-joins,
// under limits 0 and above.
func TestCacheKeyAndFootprintMatchReference(t *testing.T) {
	type dbPlan struct {
		db   *Database
		plan *JoinPlan
	}
	var cases []dbPlan
	rng := rand.New(rand.NewSource(5))
	fk, _ := fkTestDB(t, 40, rng.Intn)
	for _, p := range fkPlans {
		cases = append(cases, dbPlan{fk, p})
	}
	sweep := rand.New(rand.NewSource(23)) // TestDifferentialExecuteSweep's plans
	for iter := 0; iter < 30; iter++ {
		db := randDeepDB(t, sweep, iter%2 == 1)
		for p := 0; p < 6; p++ {
			cases = append(cases, dbPlan{db, randDeepPlan(sweep)})
		}
	}
	diff := rand.New(rand.NewSource(11))
	for iter := 0; iter < 30; iter++ {
		db := randDiffDB(t, diff)
		for p := 0; p < 5; p++ {
			cases = append(cases, dbPlan{db, randDiffPlan(diff)})
		}
	}
	wide := wideDB(t)
	for _, p := range widePlans() {
		cases = append(cases, dbPlan{wide, p})
	}
	multi := 0
	for i, c := range cases {
		cp, err := c.db.Compile(c.plan)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		for _, n := range cp.nodes {
			if len(n.preds) > 1 {
				multi++
			}
		}
		for _, limit := range []int{0, 1, 40, 1 << 40} {
			if got, want := cp.cacheKey(limit), refCacheKey(cp, limit); got != want {
				t.Fatalf("case %d limit %d: cacheKey = %q, reference %q (plan %+v)", i, limit, got, want, c.plan)
			}
		}
		got, want := cp.footprint(), refFootprint(cp)
		if fmt.Sprint(got) != fmt.Sprint(want) || len(got) != len(want) {
			t.Fatalf("case %d: footprint = %v, reference %v (plan %+v)", i, got, want, c.plan)
		}
	}
	if multi < 20 {
		t.Fatalf("only %d multi-predicate nodes: the comparison is vacuous", multi)
	}
}

// bitsDB is a parent table o of 50 rows, four of them "root", and a
// child table i of 400 rows referencing o round-robin: "big" on two rows
// in three and "sub" (a subset of big) on one in six, so each root row's
// partners interleave candidates and non-candidates.
func bitsDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("bits")
	to := mustCreateTable(t, db, &TableSchema{Name: "o", PrimaryKey: "id", Columns: []Column{{Name: "id"}, {Name: "text", Indexed: true}}})
	ti := mustCreateTable(t, db, &TableSchema{Name: "i", PrimaryKey: "id",
		Columns:     []Column{{Name: "id"}, {Name: "o_id"}, {Name: "text", Indexed: true}},
		ForeignKeys: []ForeignKey{{Column: "o_id", RefTable: "o", RefColumn: "id"}}})
	for k := 0; k < 50; k++ {
		text := "other"
		if k%13 == 1 {
			text = "root"
		}
		mustInsert(t, to, fmt.Sprintf("o%d", k), text)
	}
	for k := 0; k < 400; k++ {
		var text []string
		if k%3 != 0 {
			text = append(text, "big")
		}
		if k%6 == 1 {
			text = append(text, "sub")
		}
		mustInsert(t, ti, fmt.Sprintf("i%d", k), fmt.Sprintf("o%d", k%50), strings.Join(append(text, "x"), " "))
	}
	db.Prepare()
	return db
}

func bitsPlan(childBag string) *JoinPlan {
	return &JoinPlan{
		Nodes: []JoinNode{
			{Table: "o", Predicates: []Predicate{{Column: "text", Keywords: []string{"root"}}}},
			{Table: "i", Predicates: []Predicate{{Column: "text", Keywords: []string{childBag}}}},
		},
		Edges: []JoinEdge{{From: 1, To: 0, FromColumn: "o_id", ToColumn: "id"}},
	}
}

// TestBitmapMembershipOverReusedPool: a plan whose step with a large
// selection is probed often builds that step's bitmap, and a later plan
// over the same table whose selection is a subset of it must see only
// its own bits — the pooled bitmap is all-zero again after every run —
// and membership must be exact bit for bit, also once rows are
// tombstoned. Runs on one goroutine so the pool hands the same scratch
// back.
func TestBitmapMembershipOverReusedPool(t *testing.T) {
	base := bitsDB(t)
	var dels []Mutation
	for k := 0; k < 400; k += 7 {
		dels = append(dels, Mutation{Op: OpDelete, Table: "i", Key: fmt.Sprintf("i%d", k)})
	}
	tomb, _, err := base.Apply(dels)
	if err != nil {
		t.Fatal(err)
	}
	big, sub := bitsPlan("big"), bitsPlan("sub")
	for _, db := range []*Database{base, tomb} {
		cbig, err := db.Compile(big)
		if err != nil {
			t.Fatal(err)
		}
		sels, ok := cbig.prove(nil, nil)
		if !ok {
			t.Fatal("big plan proved empty")
		}
		r := runPool.Get().(*planRun)
		if r.run(cbig, sels, 0, false); r.order[1].bits < 0 {
			t.Fatalf("the %d-candidate child step never built its bitmap", len(sels[1]))
		}
		r.release()
		for round := 0; round < 10; round++ {
			for _, plan := range []*JoinPlan{big, sub, big, sub, sub} {
				cp, err := db.Compile(plan)
				if err != nil {
					t.Fatal(err)
				}
				for _, limit := range []int{0, 3} {
					ref, err := db.ExecuteScan(plan, ExecuteOptions{Limit: limit})
					if err != nil {
						t.Fatal(err)
					}
					if limit == 0 && len(ref) == 0 {
						t.Fatal("reference result is empty: the test is vacuous")
					}
					got, _ := cp.Execute(ExecuteOptions{Limit: limit})
					if !sameJTTs(ref, got) {
						t.Fatalf("round %d %s limit %d: compiled=%v scan=%v", round, plan.Nodes[1].Predicates[0].Keywords[0], limit, got, ref)
					}
					if n, _ := cp.CountRows(limit, nil); n != len(ref) {
						t.Fatalf("round %d limit %d: CountRows = %d, scan has %d", round, limit, n, len(ref))
					}
				}
			}
		}
	}
}
