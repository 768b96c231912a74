package freeq

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/invindex"
	"repro/internal/ontology"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/schemagraph"
)

var bg = context.Background()

type fixture struct {
	fd    *datagen.FreebaseData
	ix    *invindex.Index
	cat   *query.Catalog
	model *prob.Model
	onto  *ontology.Ontology
}

// newFixture builds a moderately wide synthetic Freebase with a matching
// ontology layer.
func newFixture(t *testing.T, domains, tablesPerDomain int) *fixture {
	t.Helper()
	cs := datagen.NewConceptSpace(12, 20, 80, 1)
	fd, err := datagen.Freebase(cs, datagen.FreebaseConfig{
		Domains: domains, TablesPerDomain: tablesPerDomain, RowsPerTable: 8, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := invindex.Build(fd.DB)
	g := schemagraph.FromDatabase(fd.DB)
	cat := query.BuildCatalog(g, schemagraph.EnumerateOptions{MaxNodes: 2, MaxTrees: 4000})
	model := prob.New(ix, cat, prob.Config{})
	o := datagen.YAGO(cs, datagen.YAGOConfig{Seed: 3})
	if mapped := MapConceptTables(o, fd.ConceptOf); mapped == 0 {
		t.Fatal("no tables mapped onto ontology")
	}
	return &fixture{fd: fd, ix: ix, cat: cat, model: model, onto: o}
}

// wideKeyword finds a keyword occurring in many tables' name attributes.
func wideKeyword(t *testing.T, f *fixture, minTables int) string {
	t.Helper()
	counts := map[string]int{}
	for _, tb := range f.fd.DB.Tables() {
		ci := tb.Schema.ColumnIndex("name")
		if ci < 0 {
			continue
		}
		seen := map[string]bool{}
		for _, row := range tb.Rows() {
			for _, tok := range relstore.Tokenize(row.Values[ci]) {
				if !seen[tok] {
					seen[tok] = true
					counts[tok]++
				}
			}
		}
	}
	best, bestN := "", 0
	for tok, n := range counts {
		if n > bestN {
			best, bestN = tok, n
		}
	}
	if bestN < minTables {
		t.Skipf("no keyword wide enough: best %q in %d tables", best, bestN)
	}
	return best
}

func (f *fixture) candidates(t *testing.T, keywords ...string) *query.Candidates {
	t.Helper()
	c, err := query.GenerateCandidatesContext(bg, f.ix, keywords, query.GenerateOptionsConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// space materialises the complete interpretation space of c.
func (f *fixture) space(t *testing.T, c *query.Candidates) []*query.Interpretation {
	t.Helper()
	space, err := query.GenerateCompleteContext(bg, c, f.cat, query.GenerateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// intentFor resolves the interpretation binding the keyword to the given
// table's name attribute.
func intentFor(t *testing.T, f *fixture, keyword, table string) *query.Interpretation {
	t.Helper()
	c := f.candidates(t, keyword)
	space := f.space(t, c)
	for _, q := range space {
		if len(q.Bindings) == 1 && q.Bindings[0].KI.Attr.Table == table &&
			q.Bindings[0].KI.Attr.Column == "name" && q.Template.Size() == 1 {
			return q
		}
	}
	t.Fatalf("no interpretation binds %q to %s.name", keyword, table)
	return nil
}

func TestEfficiency(t *testing.T) {
	if Efficiency(0) != 0 || Efficiency(1) != 0 {
		t.Fatal("degenerate options have zero efficiency")
	}
	if math.Abs(Efficiency(0.5)-0.5) > 1e-12 {
		t.Fatalf("Efficiency(0.5) = %v, want 0.5", Efficiency(0.5))
	}
	if Efficiency(0.3) <= Efficiency(0.1) {
		t.Fatal("efficiency must increase towards balance")
	}
	if math.Abs(Efficiency(0.3)-Efficiency(0.7)) > 1e-12 {
		t.Fatal("efficiency must be symmetric")
	}
}

func TestNewSessionRequiresMatches(t *testing.T) {
	f := newFixture(t, 3, 5)
	c := f.candidates(t, "zzzz")
	if _, err := NewSessionContext(bg, f.model, c, f.onto, Config{}); err == nil {
		t.Fatal("unmatched query accepted")
	}
}

func TestClassOptionsProposedOnWideSchema(t *testing.T) {
	f := newFixture(t, 6, 12)
	kw := wideKeyword(t, f, 10)
	c := f.candidates(t, kw)
	sess, err := NewSessionContext(bg, f.model, c, f.onto, Config{MaterializeAt: 4})
	if err != nil {
		t.Fatal(err)
	}
	o, ok := sess.NextOption()
	if !ok {
		t.Fatal("no option proposed")
	}
	if o.Class < 0 {
		t.Fatalf("wide keyword should get a class option first, got %s", o.Describe())
	}
	if !strings.Contains(o.Describe(), kw) {
		t.Fatalf("Describe = %q", o.Describe())
	}
}

func TestRunConstructionIsolatesIntent(t *testing.T) {
	f := newFixture(t, 6, 12)
	kw := wideKeyword(t, f, 10)
	// Pick a table containing the keyword as intent target.
	var table string
	for _, p := range f.ix.Lookup(kw) {
		if p.Attr.Column == "name" && f.fd.ConceptOf[p.Attr.Table] != "" {
			table = p.Attr.Table
			break
		}
	}
	if table == "" {
		t.Skip("no mapped table contains the keyword")
	}
	intended := intentFor(t, f, kw, table)
	c := f.candidates(t, kw)
	sess, err := NewSessionContext(bg, f.model, c, f.onto, Config{StopAtRemaining: 1, MaterializeAt: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunConstruction(bg, sess, intended)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemainingRank != 1 || res.Remaining != 1 {
		t.Fatalf("intent not isolated: %+v", res)
	}
	if res.Steps == 0 {
		t.Fatal("wide keyword should need at least one question")
	}
}

func TestAcceptDescendsRejectPrunes(t *testing.T) {
	f := newFixture(t, 6, 12)
	kw := wideKeyword(t, f, 10)
	c := f.candidates(t, kw)
	sess, err := NewSessionContext(bg, f.model, c, f.onto, Config{MaterializeAt: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := sess.SpaceSize()
	o, ok := sess.NextOption()
	if !ok || o.Class < 0 {
		t.Skip("no class option available")
	}
	if err := sess.RejectContext(bg, o); err != nil {
		t.Fatal(err)
	}
	afterReject := sess.SpaceSize()
	if afterReject >= before {
		t.Fatalf("reject did not shrink the space: %d -> %d", before, afterReject)
	}
	// Rejected subtree interpretations are gone.
	coveredTables := map[string]bool{}
	for _, ki := range o.KIs {
		coveredTables[ki.TargetTable()] = true
	}
	o2, ok := sess.NextOption()
	for ok {
		if o2.Class == o.Class {
			t.Fatal("rejected class offered again")
		}
		if err := sess.RejectContext(bg, o2); err != nil {
			t.Fatal(err)
		}
		if sess.SpaceSize() <= 1 {
			break
		}
		o2, ok = sess.NextOption()
	}
}

func TestAcceptNarrowsToSubtree(t *testing.T) {
	f := newFixture(t, 6, 12)
	kw := wideKeyword(t, f, 10)
	c := f.candidates(t, kw)
	sess, err := NewSessionContext(bg, f.model, c, f.onto, Config{MaterializeAt: 2})
	if err != nil {
		t.Fatal(err)
	}
	o, ok := sess.NextOption()
	if !ok || o.Class < 0 {
		t.Skip("no class option available")
	}
	before := sess.SpaceSize()
	if err := sess.AcceptContext(bg, o); err != nil {
		t.Fatal(err)
	}
	if sess.SpaceSize() > before {
		t.Fatal("accept enlarged the space")
	}
	if sess.SpaceSize() > len(o.KIs) {
		t.Fatalf("accepted space %d exceeds option coverage %d", sess.SpaceSize(), len(o.KIs))
	}
}

// TestFreeQBeatsAttributeLevelIQP reproduces the Figure 5.2/5.4 shape:
// on a wide flat schema, ontology-based QCOs need far fewer interactions
// than IQP's attribute-level options.
func TestFreeQBeatsAttributeLevelIQP(t *testing.T) {
	f := newFixture(t, 8, 12)
	kw := wideKeyword(t, f, 20)
	var table string
	for _, p := range f.ix.Lookup(kw) {
		if p.Attr.Column == "name" && f.fd.ConceptOf[p.Attr.Table] != "" {
			table = p.Attr.Table // first (deterministic) mapped table
			break
		}
	}
	if table == "" {
		t.Skip("no mapped table contains the keyword")
	}
	intended := intentFor(t, f, kw, table)
	c := f.candidates(t, kw)

	fsess, err := NewSessionContext(bg, f.model, c, f.onto, Config{StopAtRemaining: 1, MaterializeAt: 8})
	if err != nil {
		t.Fatal(err)
	}
	fres, err := RunConstruction(bg, fsess, intended)
	if err != nil {
		t.Fatal(err)
	}

	isess, err := core.NewSessionContext(bg, f.model, c, core.SessionConfig{StopAtRemaining: 1})
	if err != nil {
		t.Fatal(err)
	}
	ires, err := core.RunConstruction(bg, isess, core.NewSimulatedUser(intended))
	if err != nil {
		t.Fatal(err)
	}
	if fres.Steps >= ires.Steps {
		t.Fatalf("FreeQ (%d steps) should beat attribute-level IQP (%d steps) on a wide schema",
			fres.Steps, ires.Steps)
	}
}

func TestSubsumesInterpretation(t *testing.T) {
	f := newFixture(t, 3, 5)
	kw := wideKeyword(t, f, 3)
	c := f.candidates(t, kw)
	space := f.space(t, c)
	if len(space) == 0 {
		t.Fatal("empty space")
	}
	q := space[0]
	o := Option{Pos: 0, Keyword: kw, Class: -1, KIs: []query.KeywordInterpretation{*q.Bindings[0].KI}}
	if !o.SubsumesInterpretation(q) {
		t.Fatal("option should subsume the interpretation it was built from")
	}
	other := Option{Pos: 0, Keyword: kw, Class: -1, KIs: []query.KeywordInterpretation{{
		Pos: 0, Keyword: kw, Kind: query.KindValue,
		Attr: invindex.AttrRef{Table: "nonexistent", Column: "name"},
	}}}
	if other.SubsumesInterpretation(q) {
		t.Fatal("foreign option should not subsume")
	}
	// Option on a different keyword position never subsumes.
	wrongPos := Option{Pos: 5, Keyword: kw, Class: -1, KIs: o.KIs}
	if wrongPos.SubsumesInterpretation(q) {
		t.Fatal("wrong-position option should not subsume")
	}
}

func TestMapConceptTables(t *testing.T) {
	cs := datagen.NewConceptSpace(6, 10, 30, 1)
	fd, err := datagen.Freebase(cs, datagen.FreebaseConfig{Domains: 2, TablesPerDomain: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	o := datagen.YAGO(cs, datagen.YAGOConfig{Seed: 3})
	mapped := MapConceptTables(o, fd.ConceptOf)
	if mapped != len(fd.ConceptOf) {
		t.Fatalf("mapped %d of %d tables", mapped, len(fd.ConceptOf))
	}
	// Unknown concepts stay unmapped.
	o2 := ontology.New("root")
	if got := MapConceptTables(o2, fd.ConceptOf); got != 0 {
		t.Fatalf("mapped %d tables onto empty ontology", got)
	}
}

func TestStepTimeAccumulates(t *testing.T) {
	f := newFixture(t, 4, 8)
	kw := wideKeyword(t, f, 5)
	c := f.candidates(t, kw)
	sess, err := NewSessionContext(bg, f.model, c, f.onto, Config{MaterializeAt: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		o, ok := sess.NextOption()
		if !ok {
			break
		}
		if err := sess.RejectContext(bg, o); err != nil {
			t.Fatal(err)
		}
	}
	if sess.Steps() == 0 {
		t.Fatal("no steps recorded")
	}
	if sess.StepTime() <= 0 {
		t.Fatal("step time not accumulated")
	}
}

// TestUnmappedOntologyFallsBackToAttributes: with no tables mapped to the
// ontology, FreeQ degenerates gracefully to attribute-level options and
// still isolates the intent.
func TestUnmappedOntologyFallsBackToAttributes(t *testing.T) {
	f := newFixture(t, 4, 8)
	kw := wideKeyword(t, f, 5)
	empty := ontology.New("root")
	c := f.candidates(t, kw)
	sess, err := NewSessionContext(bg, f.model, c, empty, Config{StopAtRemaining: 1})
	if err != nil {
		t.Fatal(err)
	}
	var table string
	for _, p := range f.ix.Lookup(kw) {
		if p.Attr.Column == "name" {
			table = p.Attr.Table
			break
		}
	}
	if table == "" {
		t.Skip("no name table")
	}
	intended := intentFor(t, f, kw, table)
	res, err := RunConstruction(bg, sess, intended)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemainingRank != 1 {
		t.Fatalf("fallback construction failed: %+v", res)
	}
}

// TestPruneKeepsJointlyFeasible: the semi-join prune removes candidates
// whose table cannot co-occur with any candidate of the other keyword in
// a single template.
func TestPruneKeepsJointlyFeasible(t *testing.T) {
	f := newFixture(t, 4, 8)
	// Build a two-keyword query from one row of one table so both tokens
	// share that table.
	var kw1, kw2, table string
	for _, tb := range f.fd.DB.Tables() {
		ci := tb.Schema.ColumnIndex("name")
		if ci < 0 || tb.Len() == 0 {
			continue
		}
		row, _ := tb.Row(0)
		toks := relstore.Tokenize(row.Values[ci])
		if len(toks) >= 2 && toks[0] != toks[1] {
			kw1, kw2, table = toks[0], toks[1], tb.Schema.Name
			break
		}
	}
	if kw1 == "" {
		t.Skip("no two-token name found")
	}
	c := f.candidates(t, kw1, kw2)
	before := c.SpaceSize()
	sess, err := NewSessionContext(bg, f.model, c, f.onto, Config{StopAtRemaining: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sess.SpaceSize() > before {
		t.Fatalf("prune grew the space: %d -> %d", before, sess.SpaceSize())
	}
	// The shared table's interpretations must survive the prune.
	survived := false
	for _, st := range sess.states {
		for _, ki := range st.allowed {
			if ki.TargetTable() == table {
				survived = true
			}
		}
	}
	if !survived {
		t.Fatalf("prune removed the jointly feasible table %s", table)
	}
}

func TestOptionDescribe(t *testing.T) {
	classOpt := Option{Pos: 0, Keyword: "london", Class: 3, ClassName: "person"}
	if got := classOpt.Describe(); !strings.Contains(got, "person") || !strings.Contains(got, "london") {
		t.Fatalf("class Describe = %q", got)
	}
	single := Option{Pos: 0, Keyword: "london", Class: -1,
		KIs: []query.KeywordInterpretation{{
			Pos: 0, Keyword: "london", Kind: query.KindValue,
			Attr: invindex.AttrRef{Table: "actor", Column: "name"},
		}}}
	if got := single.Describe(); !strings.Contains(got, "actor.name") {
		t.Fatalf("attr Describe = %q", got)
	}
	multi := Option{Pos: 0, Keyword: "london", Class: -1,
		KIs: make([]query.KeywordInterpretation, 3)}
	if got := multi.Describe(); !strings.Contains(got, "3 attributes") {
		t.Fatalf("multi Describe = %q", got)
	}
}
