package query

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/invindex"
	"repro/internal/relstore"
	"repro/internal/schemagraph"
)

// countdownCtx reports cancellation from its (budget+1)-th Err call on,
// so tests pin where cancellation is observed without any wall clock.
type countdownCtx struct {
	context.Context
	budget atomic.Int64
}

func newCountdownCtx(budget int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.budget.Store(budget)
	return c
}

func (c *countdownCtx) Err() error {
	if c.budget.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// wideCandidates gives two keywords 40 value interpretations each on
// the table of the fixture's first template, a single-table one: that
// template alone has 1 600 binding combinations, every one of them
// minimal, so the first is kept and more than 2 × enumerateCheckEvery
// follow it.
func wideCandidates(t *testing.T, f *fixture) *Candidates {
	t.Helper()
	first := f.cat.Templates[0]
	if first.Size() != 1 {
		t.Fatalf("first template has %d tables, want 1", first.Size())
	}
	c := &Candidates{Keywords: []string{"a", "b"}, PerKeyword: make([][]KeywordInterpretation, 2)}
	for pos := range c.PerKeyword {
		for i := 0; i < 40; i++ {
			c.PerKeyword[pos] = append(c.PerKeyword[pos], KeywordInterpretation{
				Pos: pos, Keyword: c.Keywords[pos], Kind: KindValue,
				Attr: invindex.AttrRef{Table: first.Tree.Tables[0], Column: fmt.Sprintf("c%d", i)},
			})
		}
	}
	return c
}

// TestGenerateCompleteObservesCancelBetweenTemplates: a context
// cancelled after the entry check stops generation before the next
// template, even when no template is large enough for enumeration's own
// periodic check to fire.
func TestGenerateCompleteObservesCancelBetweenTemplates(t *testing.T) {
	f := newFixture(t)
	c := candidates(t, f.ix, []string{"hanks", "tom", "2001"}, GenerateOptionsConfig{})
	out, err := GenerateCompleteContext(newCountdownCtx(1), c, f.cat, GenerateConfig{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v with %d interpretations, want context.Canceled", err, len(out))
	}
}

// TestGenerateCompleteChecksContextWithinTemplate: one huge template is
// cut short within enumerateCheckEvery binding combinations of
// cancellation, not enumerated to its end.
func TestGenerateCompleteChecksContextWithinTemplate(t *testing.T) {
	f := newFixture(t)
	// The entry check and the one before the first template pass; the
	// one at emission enumerateCheckEvery fails.
	ctx := newCountdownCtx(2)
	if _, err := GenerateCompleteContext(ctx, wideCandidates(t, f), f.cat, GenerateConfig{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if left := ctx.budget.Load(); left != -1 {
		t.Fatalf("generation made %d context checks, want 3", 2-left)
	}
}

// TestGenerateCompleteStopsAtCap: a capped call stops enumerating once
// the cap is reached instead of materialising the rest of the template,
// so the enumeration's periodic check never fires.
func TestGenerateCompleteStopsAtCap(t *testing.T) {
	f := newFixture(t)
	const budget = 1000
	ctx := newCountdownCtx(budget)
	out, err := GenerateCompleteContext(ctx, wideCandidates(t, f), f.cat, GenerateConfig{MaxInterpretations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("%d interpretations, want 1", len(out))
	}
	// The entry check and the one before the first template.
	if checks := budget - ctx.budget.Load(); checks > 2 {
		t.Fatalf("generation made %d context checks, want at most 2", checks)
	}
}

// minimal is the reference form of Definition 3.5.4(2) that generation
// used before minimalBindings: it builds the interpretation first and
// then requires a grounded binding and a binding on every leaf
// occurrence (degree ≤ 1) of the template. It checks the leaves once;
// that check is exact, because an unbound leaf can be removed on its own
// and a tree whose leaves are all bound has nothing to remove.
func minimal(q *Interpretation) bool {
	tree := q.Template.Tree
	n := tree.Size()
	grounded := 0
	for _, b := range q.Bindings {
		if b.Occ >= 0 {
			grounded++
		}
	}
	if grounded == 0 {
		return false // an aggregate alone does not justify any structure
	}
	if n == 1 {
		return true
	}
	bound := make([]bool, n)
	for _, b := range q.Bindings {
		if b.Occ >= 0 {
			bound[b.Occ] = true
		}
	}
	deg := make([]int, n)
	adj := make([][]int, n)
	for _, e := range tree.TreeEdges {
		deg[e.From]++
		deg[e.To]++
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	for i := 0; i < n; i++ {
		if deg[i] <= 1 && !bound[i] {
			return false
		}
	}
	return true
}

// enumerateReference yields every assignment of every matched keyword to
// a candidate interpretation compatible with the template, including the
// choice of table occurrence for self-join templates, unpruned, in
// candidate and then occurrence order, until yield returns false. yield
// borrows the binding slice.
func enumerateReference(c *Candidates, matched []int, tpl *Template, yield func([]Binding) bool) {
	cur := make([]Binding, 0, len(matched))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(matched) {
			return yield(cur)
		}
		kis := c.PerKeyword[matched[i]]
		for k := range kis {
			occs := []int{-1}
			if kis[k].Kind != KindAggregate {
				occs = tpl.Occurrences(kis[k].TargetTable())
			}
			for _, occ := range occs {
				cur = append(cur, Binding{KI: &kis[k], Occ: occ})
				more := rec(i + 1)
				cur = cur[:len(cur)-1]
				if !more {
					return false
				}
			}
		}
		return true
	}
	rec(0)
}

// generateReference is GenerateCompleteContext as it was before
// enumeration pruned and slabs replaced per-interpretation allocation:
// every combination, NewInterpretation, then minimal, then Key, then the
// seen map. emitted counts the combinations enumeration yielded.
func generateReference(ctx context.Context, c *Candidates, cat *Catalog, cfg GenerateConfig) (out []*Interpretation, emitted int, err error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	matched := c.MatchedPositions()
	if len(matched) == 0 {
		return nil, 0, nil
	}
	capped := func(n int) bool { return cfg.MaxInterpretations > 0 && n >= cfg.MaxInterpretations }
	seen := make(map[string]bool)
	for _, tpl := range cat.Templates {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		enumerateReference(c, matched, tpl, func(bindings []Binding) bool {
			emitted++
			q := NewInterpretation(c.Keywords, tpl, bindings)
			if !minimal(q) {
				return true
			}
			key := q.Key()
			if seen[key] {
				return true
			}
			seen[key] = true
			out = append(out, q)
			return !capped(len(out))
		})
		if capped(len(out)) {
			break
		}
	}
	return out, emitted, nil
}

// demoEnv is the demo movie database (datagen.IMDB at the seed of the
// API benchmarks) indexed, with its catalogue at join path 4 as
// DemoMovies configures it.
type demoEnv struct {
	db  *relstore.Database
	ix  *invindex.Index
	g   *schemagraph.Graph
	cat *Catalog

	vocabOnce sync.Once
	vocab     []string

	distinctOnce sync.Once
	distinct     *Catalog
}

var demoOnce struct {
	sync.Once
	env *demoEnv
	err error
}

func demo(t testing.TB) *demoEnv {
	t.Helper()
	demoOnce.Do(func() {
		db, err := datagen.IMDB(datagen.IMDBConfig{Seed: 7})
		if err != nil {
			demoOnce.err = err
			return
		}
		db.Prepare()
		g := schemagraph.FromDatabase(db)
		demoOnce.env = &demoEnv{
			db:  db,
			ix:  invindex.Build(db),
			g:   g,
			cat: BuildCatalog(g, schemagraph.EnumerateOptions{MaxNodes: 4}),
		}
	})
	if demoOnce.err != nil {
		t.Fatal(demoOnce.err)
	}
	return demoOnce.env
}

// sampleTokens picks the first n ambiguous tokens (at least 4 letters,
// indexed in more than one attribute) in attribute and row order, the
// rule of the engine's SampleQueries.
func (d *demoEnv) sampleTokens(n int) []string {
	var out []string
	seen := map[string]bool{}
	for _, attr := range d.ix.Attributes() {
		tb := d.db.Table(attr.Table)
		ci := tb.Schema.ColumnIndex(attr.Column)
		for _, row := range tb.Rows() {
			for _, tok := range relstore.Tokenize(row.Values[ci]) {
				if seen[tok] || len(tok) < 4 || len(d.ix.Lookup(tok)) < 2 {
					continue
				}
				seen[tok] = true
				out = append(out, tok)
				if len(out) == n {
					return out
				}
			}
		}
	}
	return out
}

// vocabulary lists every indexed term, then the aggregate keywords and
// the table and column names, so schema-term and aggregate readings are
// reachable.
func (d *demoEnv) vocabulary() []string {
	d.vocabOnce.Do(func() {
		d.vocab = d.ix.TermsWithPrefix("", 0)
		for kw := range aggregateKeywords {
			d.vocab = append(d.vocab, kw)
		}
		slices.Sort(d.vocab[len(d.vocab)-len(aggregateKeywords):])
		for _, attr := range d.ix.Attributes() {
			d.vocab = append(d.vocab, attr.Table, attr.Column)
		}
	})
	return d.vocab
}

// distinctCatalog is the demo catalogue without repeated tables, built
// as the construction simulations build theirs: join trees of up to four
// occurrences, each table at most once, wrapped template by template.
func (d *demoEnv) distinctCatalog() *Catalog {
	d.distinctOnce.Do(func() {
		trees := d.g.EnumerateJoinTrees(schemagraph.EnumerateOptions{MaxNodes: 4, MaxTrees: 1000, MaxOccurrences: 1})
		d.distinct = &Catalog{Templates: make([]*Template, len(trees))}
		for i, tr := range trees {
			d.distinct.Templates[i] = NewTemplate(i, tr)
		}
	})
	return d.distinct
}

// restrictLabel keeps the value interpretations of position pos whose
// attribute matches label by column, table or "table.column", as a
// "label:keyword" query does.
func restrictLabel(c *Candidates, pos int, label string) {
	var kept []KeywordInterpretation
	for _, ki := range c.PerKeyword[pos] {
		if ki.Kind == KindValue && (label == ki.Attr.Column || label == ki.Attr.Table || label == ki.Attr.String()) {
			kept = append(kept, ki)
		}
	}
	c.PerKeyword[pos] = kept
	if len(kept) == 0 {
		c.Unmatched = append(c.Unmatched, pos)
	}
}

// checkMatchesReference compares GenerateCompleteContext with
// generateReference on one candidate set: the same interpretations, with
// the same keys and bindings, in the same order.
func checkMatchesReference(t *testing.T, c *Candidates, cat *Catalog, cfg GenerateConfig) []*Interpretation {
	t.Helper()
	want, _, err := generateReference(context.Background(), c, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GenerateCompleteContext(context.Background(), c, cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%q: %d interpretations, reference has %d", c.Keywords, len(got), len(want))
	}
	for i, q := range got {
		if q.Key() != want[i].Key() || q.Template != want[i].Template || !reflect.DeepEqual(q.Bindings, want[i].Bindings) {
			t.Fatalf("%q: interpretation %d is %s, reference has %s", c.Keywords, i, q.Key(), want[i].Key())
		}
	}
	return got
}

// checkKeyOrder requires the sign of CompareKey to equal the sign of
// strings.Compare over the keys on every pair of space.
func checkKeyOrder(t *testing.T, space []*Interpretation) {
	t.Helper()
	for _, a := range space {
		for _, b := range space {
			if got, want := cmp.Compare(CompareKey(a, b), 0), cmp.Compare(strings.Compare(a.Key(), b.Key()), 0); got != want {
				t.Fatalf("CompareKey(%s, %s) = %d, keys compare %d", a.Key(), b.Key(), got, want)
			}
		}
	}
}

// refQuery is a keyword query whose labels map keyword positions to
// labels.
type refQuery struct {
	keywords []string
	labels   map[int]string
}

// referenceQueries are the demo sample tokens alone, in adjacent pairs
// and triples, plus the label and segmentation queries of the engine's
// tests.
func referenceQueries(d *demoEnv) []refQuery {
	type q = refQuery
	toks := d.sampleTokens(12)
	var out []q
	for n := 1; n <= 3; n++ {
		for i := 0; i+n <= len(toks); i++ {
			out = append(out, q{keywords: toks[i : i+n]})
		}
	}
	for _, s := range []string{"tom hanks", "hanks terminal", "number hanks", "london", "tom hanks movie"} {
		out = append(out, q{keywords: strings.Fields(s)})
	}
	out = append(out,
		q{keywords: []string{"london"}, labels: map[int]string{0: "title"}},
		q{keywords: []string{"hanks", "terminal"}, labels: map[int]string{0: "name"}},
		q{keywords: []string{"tom"}, labels: map[int]string{0: "actor.name"}},
		q{keywords: []string{toks[0], toks[1]}, labels: map[int]string{1: "title"}},
	)
	return out
}

// TestGenerateCompleteMatchesReference: on the demo movie data at join
// path 4, with schema terms and aggregates each on and off, generation
// returns exactly what the allocate-then-check reference loop returns.
func TestGenerateCompleteMatchesReference(t *testing.T) {
	d := demo(t)
	forEachReference(t, d, func(t *testing.T, c *Candidates) {
		checkMatchesReference(t, c, d.cat, GenerateConfig{})
		checkMatchesReference(t, c, d.cat, GenerateConfig{MaxInterpretations: 5})
	})
}

// TestCatalogCanonicalCached: every template built by BuildCatalog
// carries its tree's canonical form, distinct from every other
// template's, and its degree ≤ 1 occurrences as leaves.
func TestCatalogCanonicalCached(t *testing.T) {
	d := demo(t)
	for maxNodes := 2; maxNodes <= 4; maxNodes++ {
		cat := BuildCatalog(d.g, schemagraph.EnumerateOptions{MaxNodes: maxNodes})
		seen := make(map[string]int, len(cat.Templates))
		for _, tpl := range cat.Templates {
			if want := tpl.Tree.Canonical(); tpl.canonical != want {
				t.Fatalf("join path %d, template %d: cached canonical %q, tree has %q", maxNodes, tpl.ID, tpl.canonical, want)
			}
			if other, dup := seen[tpl.canonical]; dup {
				t.Fatalf("join path %d: templates %d and %d share canonical form %q", maxNodes, other, tpl.ID, tpl.canonical)
			}
			seen[tpl.canonical] = tpl.ID
			deg := make([]int, tpl.Size())
			for _, e := range tpl.Tree.TreeEdges {
				deg[e.From]++
				deg[e.To]++
			}
			var leaves []int
			for i, n := range deg {
				if n <= 1 {
					leaves = append(leaves, i)
				}
			}
			if !reflect.DeepEqual(tpl.leaves, leaves) {
				t.Fatalf("join path %d, template %d: cached leaves %v, tree has %v", maxNodes, tpl.ID, tpl.leaves, leaves)
			}
		}
	}
}

// TestGenerateCompleteChecksContextWhilePruning: enumeration counts
// pruned steps toward its context checks. Every keyword's candidates sit
// on the inner occurrence of an actor–acts–movie template, so each
// branch is pruned at the first keyword and none reaches an emission;
// cancellation must still be observed at step enumerateCheckEvery.
func TestGenerateCompleteChecksContextWhilePruning(t *testing.T) {
	tree := &schemagraph.JoinTree{
		Tables: []string{"actor", "acts", "movie"},
		TreeEdges: []schemagraph.TreeEdge{
			{From: 1, To: 0, FromColumn: "actor_id", ToColumn: "id"},
			{From: 1, To: 2, FromColumn: "movie_id", ToColumn: "id"},
		},
	}
	cat := &Catalog{Templates: []*Template{NewTemplate(0, tree)}}
	c := &Candidates{Keywords: []string{"a", "b"}, PerKeyword: make([][]KeywordInterpretation, 2)}
	for pos := range c.PerKeyword {
		for i := 0; i < 2*enumerateCheckEvery; i++ {
			c.PerKeyword[pos] = append(c.PerKeyword[pos], KeywordInterpretation{
				Pos: pos, Keyword: c.Keywords[pos], Kind: KindValue,
				Attr: invindex.AttrRef{Table: "acts", Column: fmt.Sprintf("c%d", i)},
			})
		}
	}
	// The entry check and the one before the template pass; the one at
	// step enumerateCheckEvery fails.
	ctx := newCountdownCtx(2)
	if _, err := GenerateCompleteContext(ctx, c, cat, GenerateConfig{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if left := ctx.budget.Load(); left != -1 {
		t.Fatalf("generation made %d context checks, want 3", 2-left)
	}
}

// forEachReference calls fn with the candidates of every reference query,
// in one subtest each with schema terms and aggregates on and off.
func forEachReference(t *testing.T, d *demoEnv, fn func(t *testing.T, c *Candidates)) {
	t.Helper()
	queries := referenceQueries(d)
	for _, schema := range []bool{false, true} {
		for _, aggs := range []bool{false, true} {
			t.Run(fmt.Sprintf("schema=%t/aggs=%t", schema, aggs), func(t *testing.T) {
				opts := GenerateOptionsConfig{IncludeSchemaTerms: schema, IncludeAggregates: aggs}
				for _, q := range queries {
					c := candidates(t, d.ix, q.keywords, opts)
					for pos, label := range q.labels {
						restrictLabel(c, pos, label)
					}
					fn(t, c)
				}
			})
		}
	}
}

// TestGenerateEmitsOnlyMinimal counts, on the reference queries, the
// combinations generation emits and those of them that are minimal, and
// requires the two equal and equal to the reference's minimal ones: no
// non-minimal combination is built. The unpruned reference's counts are
// logged beside them.
func TestGenerateEmitsOnlyMinimal(t *testing.T) {
	d := demo(t)
	ctx := context.Background()
	var calls, refEmitted, refKept, emitted, kept int
	forEachReference(t, d, func(t *testing.T, c *Candidates) {
		var g generator
		if !g.init(ctx, c, d.cat, 0, false) {
			return
		}
		want, n, err := generateReference(ctx, c, d.cat, GenerateConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for ti := range d.cat.Templates {
			g.enumerate(ti, nil)
		}
		got := g.finish()
		minimalGot := 0
		for _, q := range got {
			if minimal(q) {
				minimalGot++
			}
		}
		if g.n != minimalGot || minimalGot != len(want) {
			t.Fatalf("%q: emitted %d combinations, %d of them minimal; the reference keeps %d", c.Keywords, g.n, minimalGot, len(want))
		}
		calls++
		refEmitted += n
		refKept += len(want)
		emitted += g.n
		kept += minimalGot
	})
	t.Logf("per call over %d calls: reference emits %.1f and keeps %.1f; generation emits %.1f and keeps %.1f",
		calls, float64(refEmitted)/float64(calls), float64(refKept)/float64(calls),
		float64(emitted)/float64(calls), float64(kept)/float64(calls))
}

// TestMinimalMatchesReference: Interpretation.Minimal agrees with the
// degree-based reference on every combination the unpruned enumeration
// yields for the reference queries, over the join-path-4 catalogue and
// the one without repeated tables.
func TestMinimalMatchesReference(t *testing.T) {
	d := demo(t)
	var minimalN, otherN int
	forEachReference(t, d, func(t *testing.T, c *Candidates) {
		matched := c.MatchedPositions()
		for _, cat := range []*Catalog{d.cat, d.distinctCatalog()} {
			for _, tpl := range cat.Templates {
				enumerateReference(c, matched, tpl, func(bindings []Binding) bool {
					q := NewInterpretation(c.Keywords, tpl, bindings)
					want := minimal(q)
					if got := q.Minimal(); got != want {
						t.Fatalf("%s: Minimal() = %t, the reference %t", q.Key(), got, want)
					}
					if want {
						minimalN++
					} else {
						otherN++
					}
					return true
				})
			}
		}
	})
	if minimalN == 0 || otherN == 0 {
		t.Fatalf("%d minimal and %d other combinations: both kinds must occur", minimalN, otherN)
	}
	t.Logf("%d minimal and %d other combinations", minimalN, otherN)
}

// TestCompareKeyMatchesKeyOrder: within one generation of every reference
// query CompareKey orders pairs as their keys do, and so it does across
// two generations of one query, where it compares the keys.
func TestCompareKeyMatchesKeyOrder(t *testing.T) {
	d := demo(t)
	forEachReference(t, d, func(t *testing.T, c *Candidates) {
		space := complete(t, c, d.cat, GenerateConfig{})
		checkKeyOrder(t, space)
		again := complete(t, c, d.cat, GenerateConfig{})
		for i := range min(len(space), 8) {
			for j := range min(len(again), 8) {
				if got, want := cmp.Compare(CompareKey(space[i], again[j]), 0), cmp.Compare(strings.Compare(space[i].Key(), again[j].Key()), 0); got != want {
					t.Fatalf("across generations CompareKey(%s, %s) = %d, keys compare %d", space[i].Key(), again[j].Key(), got, want)
				}
			}
		}
	})
}

// TestCompareOcc: occurrences order as their decimal renderings followed
// by ';' do.
func TestCompareOcc(t *testing.T) {
	for a := -12; a <= 120; a++ {
		for b := -12; b <= 120; b++ {
			want := strings.Compare(strconv.Itoa(a)+";", strconv.Itoa(b)+";")
			if got := compareOcc(a, b); got != want {
				t.Fatalf("compareOcc(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// TestCompareKeyFallsBackWhenRenderingsNest: when one candidate's key
// segment is a proper prefix of another's, the ranks cannot order the
// keys, and CompareKey compares the keys themselves.
func TestCompareKeyFallsBackWhenRenderingsNest(t *testing.T) {
	f := newFixture(t)
	single := f.cat.Templates[0]
	table := single.Tree.Tables[0]
	c := &Candidates{Keywords: []string{"a", "b"}, PerKeyword: make([][]KeywordInterpretation, 2)}
	for pos, cols := range [][]string{{"c", "c@1", "c@0"}, {"d1", "d"}} {
		for _, col := range cols {
			c.PerKeyword[pos] = append(c.PerKeyword[pos], KeywordInterpretation{
				Pos: pos, Keyword: c.Keywords[pos], Kind: KindValue, Attr: invindex.AttrRef{Table: table, Column: col},
			})
		}
	}
	cat := &Catalog{Templates: []*Template{single}}
	space := checkMatchesReference(t, c, cat, GenerateConfig{})
	if len(space) != 6 {
		t.Fatalf("%d interpretations, want 6", len(space))
	}
	if space[0].first != nil {
		t.Fatal("nested renderings kept the integer order")
	}
	checkKeyOrder(t, space)
}

// TestKeyConcurrentReaders: generation renders no keys, so the first
// Key call on an interpretation memoises it; two goroutines calling Key
// on the interpretations of one generation must agree and, under -race,
// not race.
func TestKeyConcurrentReaders(t *testing.T) {
	d := demo(t)
	c := candidates(t, d.ix, d.sampleTokens(2), GenerateOptionsConfig{IncludeSchemaTerms: true, IncludeAggregates: true})
	space := complete(t, c, d.cat, GenerateConfig{})
	if len(space) == 0 {
		t.Fatal("no interpretations")
	}
	keys := [2][]string{}
	var wg sync.WaitGroup
	for r := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range space {
				keys[r] = append(keys[r], q.Key())
			}
		}()
	}
	wg.Wait()
	if !slices.Equal(keys[0], keys[1]) {
		t.Fatal("concurrent Key calls disagree")
	}
}

// hasBindingByKey is HasBinding as it compared before: by rendered keys.
func hasBindingByKey(q *Interpretation, ki KeywordInterpretation) bool {
	key := ki.Key()
	for _, b := range q.Bindings {
		if b.KI.Key() == key {
			return true
		}
	}
	return false
}

// TestHasBindingMatchesKeyEquality: on the reference queries with schema
// terms and aggregates on, two candidates are equal exactly when their
// keys are, and HasBinding agrees with the key comparison for every
// candidate against every interpretation.
func TestHasBindingMatchesKeyEquality(t *testing.T) {
	d := demo(t)
	opts := GenerateOptionsConfig{IncludeSchemaTerms: true, IncludeAggregates: true}
	for _, rq := range referenceQueries(d) {
		c := candidates(t, d.ix, rq.keywords, opts)
		var all []KeywordInterpretation
		for _, kis := range c.PerKeyword {
			all = append(all, kis...)
		}
		for _, a := range all {
			for _, b := range all {
				if (a == b) != (a.Key() == b.Key()) {
					t.Fatalf("%s and %s: value equality %t, key equality %t", a.Key(), b.Key(), a == b, a.Key() == b.Key())
				}
			}
		}
		for _, q := range complete(t, c, d.cat, GenerateConfig{}) {
			for _, ki := range all {
				if got, want := q.HasBinding(ki), hasBindingByKey(q, ki); got != want {
					t.Fatalf("%s HasBinding(%s) = %t, by key %t", q.Key(), ki.Key(), got, want)
				}
			}
		}
	}
}

// checkStreamMatches requires StreamCompleteContext's views, copied
// with CopyFrom as they arrive, to be GenerateCompleteContext's space
// under cfg: the same interpretations in the same order, ordered by
// CompareKey as their keys order, against each other and against the
// view, and ranked exactly when the materialised space is.
func checkStreamMatches(t *testing.T, c *Candidates, cat *Catalog, cfg GenerateConfig) {
	t.Helper()
	want := complete(t, c, cat, cfg)
	m := len(c.MatchedPositions())
	var got []*Interpretation
	var view *Interpretation
	err := StreamCompleteContext(context.Background(), c, cat, cfg, func(q *Interpretation) bool {
		view = q
		q.Key() // memoise, so a stale key on the next view would show
		cp := &NewSlots(1, m)[0]
		cp.CopyFrom(q)
		for _, prev := range got {
			if g, w := cmp.Compare(CompareKey(q, prev), 0), cmp.Compare(strings.Compare(q.Key(), prev.Key()), 0); g != w {
				t.Fatalf("CompareKey(view %s, copy %s) = %d, keys compare %d", q.Key(), prev.Key(), g, w)
			}
		}
		got = append(got, cp)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%q: streamed %d interpretations, materialised %d", c.Keywords, len(got), len(want))
	}
	for i, q := range got {
		if q.Key() != want[i].Key() || q.Template != want[i].Template || !reflect.DeepEqual(q.Bindings, want[i].Bindings) {
			t.Fatalf("%q: interpretation %d streamed %s, materialised %s", c.Keywords, i, q.Key(), want[i].Key())
		}
		if (q.first == nil) != (want[i].first == nil) || (q.first != nil && q.first != view) {
			t.Fatalf("%q: interpretation %d: streamed copy ranked %t, materialised %t", c.Keywords, i, q.first != nil, want[i].first != nil)
		}
	}
	checkKeyOrder(t, got)
}

// TestStreamCompleteMatchesGenerate: on the reference queries, over the
// demo catalogue and the one without repeated tables, with and without a
// cap, streaming visits exactly the space generation materialises; the
// nested-renderings case streams unranked views; and a visit that
// returns false stops the stream.
func TestStreamCompleteMatchesGenerate(t *testing.T) {
	d := demo(t)
	forEachReference(t, d, func(t *testing.T, c *Candidates) {
		for _, cat := range []*Catalog{d.cat, d.distinctCatalog()} {
			checkStreamMatches(t, c, cat, GenerateConfig{})
			checkStreamMatches(t, c, cat, GenerateConfig{MaxInterpretations: 5})
		}
	})

	f := newFixture(t)
	single := f.cat.Templates[0]
	c := &Candidates{Keywords: []string{"a", "b"}, PerKeyword: make([][]KeywordInterpretation, 2)}
	for pos, cols := range [][]string{{"c", "c@1", "c@0"}, {"d1", "d"}} {
		for _, col := range cols {
			c.PerKeyword[pos] = append(c.PerKeyword[pos], KeywordInterpretation{
				Pos: pos, Keyword: c.Keywords[pos], Kind: KindValue, Attr: invindex.AttrRef{Table: single.Tree.Tables[0], Column: col},
			})
		}
	}
	checkStreamMatches(t, c, &Catalog{Templates: []*Template{single}}, GenerateConfig{})

	visits := 0
	err := StreamCompleteContext(context.Background(), wideCandidates(t, f), f.cat, GenerateConfig{}, func(*Interpretation) bool {
		visits++
		return visits < 3
	})
	if err != nil || visits != 3 {
		t.Fatalf("stream stopped after %d visits with %v, want 3 and no error", visits, err)
	}
}
