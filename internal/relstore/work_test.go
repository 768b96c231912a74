package relstore_test

import (
	"context"
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
type countingStore struct{ selections int }

func (s *countingStore) GetSelection(string, int, string) ([]int, bool) {
	s.selections++
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
	// shared and perPlan: selections resolved through one SelectionCache
	// shared by all plans, and through a fresh one per plan.
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
		rows: 8722, probes: 7835, shared: 15, perPlan: 79}
	if got != want {
		t.Fatalf("executor work %+v, want %+v", got, want)
	}
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
