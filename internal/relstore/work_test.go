package relstore_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/invindex"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/schemagraph"
)

// countingStore is a SharedStore that holds nothing: a SelectionCache
// backed by it consults GetSelection on every local miss, so the count
// is the number of selections the cache resolved from the posting lists.
// listed records each selection that is not a keyword selection: a
// table's membership or an empty bag.
type countingStore struct {
	selections int
	listed     []string
}

func (s *countingStore) GetSelection(table string, col int, bag string) ([]int, bool) {
	s.selections++
	if col == relstore.MembershipCol || bag == "" {
		s.listed = append(s.listed, fmt.Sprintf("%s.%d[%q]", table, col, bag))
	}
	return nil, false
}
func (*countingStore) PutSelection(string, int, string, []int)  {}
func (*countingStore) GetPlan(string) ([][]int, bool)           { return nil, false }
func (*countingStore) PutPlan(string, []relstore.Attr, [][]int) {}
func (*countingStore) GetCount(string) (int, bool)              { return 0, false }
func (*countingStore) PutCount(string, []relstore.Attr, int)    {}

// workCounts is the counted work of one request's plans.
type workCounts struct {
	plans, jtts int
	// scanRows and scanProbes: the rows the reference scan reads and the
	// join partners it looks up.
	scanRows, scanProbes int
	// rows and probes: the rows the posting path's selections return and
	// the join partners it probes.
	rows, probes int
	// shared and perPlan: keyword selections resolved through one
	// SelectionCache shared by all plans, and through a fresh one per
	// plan. A node no predicate narrows resolves none.
	shared, perPlan int
}

// TestExecutorWorkCounted is the executor's counted guard. Its fixture is
// one top-k request's storage work: the demo movies at 2.5× scale, the
// first two keywords that occur in more than one attribute, the first 40
// of their ranked interpretations as join plans, 40 JTTs per plan (the
// per-interpretation limit of a K=10 SearchRows). Plan by plan the
// posting path must return the reference scan's exact JTT sequence, and
// its work must equal the pinned counts exactly, so a change that makes
// the executor probe, select or resolve more — the semi-join memo lost,
// selections scanned instead of read from the posting lists, the
// request's SelectionCache bypassed — fails here, on any machine and at
// any GOMAXPROCS, with no timing involved.
func TestExecutorWorkCounted(t *testing.T) {
	db, plans, keywords := workFixture(t)
	var got workCounts
	got.plans = len(plans)
	store := &countingStore{}
	shared := relstore.NewSelectionCacheShared(store)
	for i, p := range plans {
		want, sw, err := db.ExecuteScanWork(p, relstore.ExecuteOptions{Limit: 40})
		if err != nil {
			t.Fatal(err)
		}
		cp, err := db.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		jtts, w := cp.ExecuteWork(40, shared)
		if !sameJTTs(jtts, want) {
			t.Fatalf("plan %d: posting path %v, scan %v", i, jtts, want)
		}
		served, err := db.Execute(p, relstore.ExecuteOptions{Limit: 40, Cache: relstore.NewSelectionCache()})
		if err != nil || !sameJTTs(served, want) {
			t.Fatalf("plan %d: Execute %v (%v), scan %v", i, served, err, want)
		}
		before := store.selections
		cp.ExecuteWork(40, relstore.NewSelectionCacheShared(store))
		got.perPlan += store.selections - before
		store.selections = before
		got.jtts += len(want)
		got.scanRows += sw.RowsRead
		got.scanProbes += sw.Probes
		got.rows += w.Rows
		got.probes += w.Probes
	}
	got.shared = store.selections
	t.Logf("query %q: %+v", keywords, got)
	t.Logf("posting path reads %d rows+probes, the scan %d (%.1fx)", got.rows+got.probes,
		got.scanRows+got.scanProbes, float64(got.scanRows+got.scanProbes)/float64(got.rows+got.probes))

	want := workCounts{plans: 26, jtts: 603, scanRows: 83424, scanProbes: 7111,
		rows: 8722, probes: 7835, shared: 10, perPlan: 49}
	if got != want {
		t.Fatalf("executor work %+v, want %+v", got, want)
	}
}

// TestFreeNodesAreNeverListed: a plan node no predicate narrows — a
// connector between keyword nodes, or every node of a schema-term-only
// reading — is counted and walked, never listed, so no SelectionCache
// consults its store for a membership or empty-bag selection. Over the
// work guard's plans, and over the readings of "movie" and "movie actor"
// with schema terms on a database whose movie and actor tables hold
// tombstones, every plan must return the scan reference's JTT sequence,
// with and without a limit.
func TestFreeNodesAreNeverListed(t *testing.T) {
	db, plans, _ := workFixture(t)
	var dels []relstore.Mutation
	for _, table := range []string{"movie", "actor"} {
		tb := db.Table(table)
		for id, row := range tb.Rows() {
			if id%3 == 1 {
				dels = append(dels, relstore.Mutation{Op: relstore.OpDelete, Table: table, Key: row.Values[0]})
			}
		}
	}
	tomb, _, err := db.Apply(dels)
	if err != nil {
		t.Fatal(err)
	}
	if tomb.Table("movie").NumLive() == tomb.Table("movie").Len() {
		t.Fatal("no tombstones in the movie table")
	}
	ix := invindex.Build(tomb)
	cat := query.BuildCatalog(schemagraph.FromDatabase(tomb), schemagraph.EnumerateOptions{MaxNodes: 4})
	ctx := context.Background()
	var allFree []*relstore.JoinPlan
	for _, q := range [][]string{{"movie"}, {"movie", "actor"}} {
		cands, err := query.GenerateCandidatesContext(ctx, ix, q, query.GenerateOptionsConfig{IncludeSchemaTerms: true})
		if err != nil {
			t.Fatal(err)
		}
		space, err := query.GenerateCompleteContext(ctx, cands, cat, query.GenerateConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range space {
			p, err := in.JoinPlan()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.ContainsFunc(p.Nodes, func(n relstore.JoinNode) bool { return len(n.Predicates) > 0 }) {
				allFree = append(allFree, p)
			}
		}
	}
	if !slices.ContainsFunc(allFree, func(p *relstore.JoinPlan) bool { return len(p.Nodes) > 1 }) {
		t.Fatalf("no schema-term-only join among %d free readings", len(allFree))
	}
	// The same readings with an empty-bag predicate on every node: every
	// row contains the empty bag, so the nodes stay free.
	for _, p := range slices.Clone(allFree) {
		q := &relstore.JoinPlan{Nodes: slices.Clone(p.Nodes), Edges: p.Edges}
		for i, n := range q.Nodes {
			q.Nodes[i].Predicates = []relstore.Predicate{{Column: tomb.Table(n.Table).Schema.Columns[1].Name}}
		}
		allFree = append(allFree, q)
	}

	check := func(db *relstore.Database, plans []*relstore.JoinPlan) {
		t.Helper()
		store := &countingStore{}
		for i, p := range plans {
			for _, limit := range []int{0, 7} {
				want, err := db.ExecuteScan(p, relstore.ExecuteOptions{Limit: limit})
				if err != nil {
					t.Fatal(err)
				}
				got, err := db.Execute(p, relstore.ExecuteOptions{Limit: limit, Cache: relstore.NewSelectionCacheShared(store)})
				if err != nil || !sameJTTs(got, want) {
					t.Fatalf("plan %d limit %d: %d JTTs (%v), scan %d", i, limit, len(got), err, len(want))
				}
				cp, err := db.Compile(p)
				if err != nil {
					t.Fatal(err)
				}
				if n, _ := cp.CountRows(limit, relstore.NewSelectionCacheShared(store)); n != len(want) {
					t.Fatalf("plan %d limit %d: CountRows %d, scan %d", i, limit, n, len(want))
				}
			}
		}
		if len(store.listed) > 0 {
			t.Fatalf("%d selections listed for unconstrained nodes, first %v", len(store.listed), store.listed[0])
		}
	}
	check(db, plans)
	check(tomb, plans)
	check(tomb, allFree)
}

func sameJTTs(a, b []relstore.JTT) bool {
	return slices.EqualFunc(a, b, func(x, y relstore.JTT) bool { return slices.Equal(x.Rows, y.Rows) })
}

// workFixture builds the guard's database and the ranked join plans of
// its query.
func workFixture(t *testing.T) (*relstore.Database, []*relstore.JoinPlan, []string) {
	t.Helper()
	db, err := datagen.IMDB(datagen.IMDBConfig{Movies: 1000, Actors: 750, Directors: 200, Companies: 100, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	db.Prepare()
	ix := invindex.Build(db)
	cat := query.BuildCatalog(schemagraph.FromDatabase(db), schemagraph.EnumerateOptions{MaxNodes: 4})
	model := prob.New(ix, cat, prob.Config{UseCoOccurrence: true})
	keywords := ambiguousKeywords(ix, db, 2)
	if len(keywords) < 2 {
		t.Fatalf("only %d ambiguous keywords", len(keywords))
	}
	ctx := context.Background()
	cands, err := query.GenerateCandidatesContext(ctx, ix, keywords, query.GenerateOptionsConfig{})
	if err != nil {
		t.Fatal(err)
	}
	space, err := query.GenerateCompleteContext(ctx, cands, cat, query.GenerateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := model.RankContext(ctx, space)
	if err != nil {
		t.Fatal(err)
	}
	var plans []*relstore.JoinPlan
	for _, sc := range ranked[:min(len(ranked), 40)] {
		p, err := sc.Q.JoinPlan()
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	return db, plans, keywords
}

// ambiguousKeywords picks the first n tokens of at least four letters
// that occur in more than one attribute: the keywords that fan a query
// out into many candidate networks.
func ambiguousKeywords(ix *invindex.Index, db *relstore.Database, n int) []string {
	var out []string
	seen := map[string]bool{}
	for _, attr := range ix.Attributes() {
		t := db.Table(attr.Table)
		ci := t.Schema.ColumnIndex(attr.Column)
		for _, row := range t.Rows() {
			for _, tok := range relstore.Tokenize(row.Values[ci]) {
				if seen[tok] || len(tok) < 4 || len(ix.Lookup(tok)) <= 1 {
					continue
				}
				seen[tok] = true
				if out = append(out, tok); len(out) >= n {
					return out
				}
			}
		}
	}
	return out
}
