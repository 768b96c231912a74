package yagof

import (
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ontology"
)

type fixture struct {
	cs *datagen.ConceptSpace
	fd *datagen.FreebaseData
	o  *ontology.Ontology
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	cs := datagen.NewConceptSpace(10, 30, 100, 1)
	fd, err := datagen.Freebase(cs, datagen.FreebaseConfig{
		Domains: 4, TablesPerDomain: 8, RowsPerTable: 12, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := datagen.YAGO(cs, datagen.YAGOConfig{CoverageProb: 0.85, Seed: 3})
	return &fixture{cs: cs, fd: fd, o: o}
}

func TestCategoryDistribution(t *testing.T) {
	f := newFixture(t)
	bands := CategoryDistribution(f.o)
	kinds := map[string]CategoryBand{}
	for _, b := range bands {
		kinds[b.Kind] = b
	}
	wn, ok := kinds["wordnet"]
	if !ok || wn.Classes == 0 {
		t.Fatalf("wordnet band missing: %v", bands)
	}
	wc, ok := kinds["wikicategory"]
	if !ok || wc.Classes == 0 {
		t.Fatalf("wikicategory band missing: %v", bands)
	}
	// Every wiki category holds instances; most wordnet classes are
	// instance-free backbone.
	if wc.WithInstances != wc.Classes {
		t.Fatalf("wiki categories without instances: %+v", wc)
	}
	if wn.WithInstances >= wn.Classes {
		t.Fatalf("backbone classes should be mostly instance-free: %+v", wn)
	}
	total := 0
	for _, b := range bands {
		total += b.Classes
	}
	if total != f.o.NumClasses() {
		t.Fatalf("bands cover %d of %d classes", total, f.o.NumClasses())
	}
}

func TestInstanceDistribution(t *testing.T) {
	f := newFixture(t)
	bands := InstanceDistribution(f.o)
	classTotal, instTotal := 0, 0
	for _, b := range bands {
		classTotal += b.Classes
		instTotal += b.Instances
	}
	if classTotal != f.o.NumClasses() {
		t.Fatalf("bands cover %d of %d classes", classTotal, f.o.NumClasses())
	}
	if instTotal == 0 {
		t.Fatal("no instances counted")
	}
	// The zero band holds the backbone.
	if bands[0].Classes == 0 {
		t.Fatal("no instance-free classes found")
	}
	if bands[0].Instances != 0 {
		t.Fatal("zero band carries instances")
	}
}

func TestSharedInstancesByDomain(t *testing.T) {
	f := newFixture(t)
	rows := SharedInstancesByDomain(f.o, f.fd.InstancesOf, f.fd.DomainOf)
	if len(rows) != len(f.fd.Domains) {
		t.Fatalf("domains = %d, want %d", len(rows), len(f.fd.Domains))
	}
	for _, r := range rows {
		if r.Tables == 0 || r.Instances == 0 {
			t.Fatalf("degenerate domain row: %+v", r)
		}
		if r.Shared > r.Instances {
			t.Fatalf("shared exceeds instances: %+v", r)
		}
		// With 85% ontology coverage the shared fraction must be high.
		if r.SharedFraction() < 0.5 {
			t.Fatalf("shared fraction too low: %+v", r)
		}
	}
	if (DomainOverlap{}).SharedFraction() != 0 {
		t.Fatal("empty domain fraction should be 0")
	}
}

func TestMatchTablesFindsTrueConcepts(t *testing.T) {
	f := newFixture(t)
	matches := MatchTables(f.o, f.fd.InstancesOf, MatchConfig{Threshold: 0.5, ConceptClassesOnly: true})
	if len(matches) == 0 {
		t.Fatal("no matches at threshold 0.5")
	}
	correct := 0
	for _, m := range matches {
		want := "wordnet_" + f.fd.ConceptOf[m.Table]
		if m.ClassName == want {
			correct++
		}
		if m.Score < 0.5 || m.Score > 1 {
			t.Fatalf("score out of range: %+v", m)
		}
	}
	frac := float64(correct) / float64(len(matches))
	if frac < 0.9 {
		t.Fatalf("only %.2f of matches hit the true concept", frac)
	}
}

func TestMatchThresholdMonotone(t *testing.T) {
	f := newFixture(t)
	prev := -1
	for _, th := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.99} {
		n := len(MatchTables(f.o, f.fd.InstancesOf, MatchConfig{Threshold: th, ConceptClassesOnly: true}))
		if prev >= 0 && n > prev {
			t.Fatalf("match count increased with threshold: %d -> %d at %v", prev, n, th)
		}
		prev = n
	}
}

func TestMatchEmptyTableSkipped(t *testing.T) {
	f := newFixture(t)
	inst := map[string][]string{"empty_table": nil}
	if got := MatchTables(f.o, inst, MatchConfig{}); len(got) != 0 {
		t.Fatalf("empty table matched: %v", got)
	}
}

func TestMatchDeterministic(t *testing.T) {
	f := newFixture(t)
	m1 := MatchTables(f.o, f.fd.InstancesOf, MatchConfig{Threshold: 0.3})
	m2 := MatchTables(f.o, f.fd.InstancesOf, MatchConfig{Threshold: 0.3})
	if len(m1) != len(m2) {
		t.Fatal("match count differs between runs")
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("matching not deterministic at %d: %v vs %v", i, m1[i], m2[i])
		}
	}
}

func TestApplyAndCharacterize(t *testing.T) {
	f := newFixture(t)
	matches := MatchTables(f.o, f.fd.InstancesOf, MatchConfig{Threshold: 0.5, ConceptClassesOnly: true})
	Apply(f.o, matches)
	total := len(f.fd.InstancesOf)
	st := Characterize(f.o, matches, total)
	if st.MatchedTables != len(matches) {
		t.Fatalf("MatchedTables = %d", st.MatchedTables)
	}
	if st.MatchedTables+st.UnmatchedTables != total {
		t.Fatal("matched+unmatched != total")
	}
	if st.ClassesWithTables == 0 || st.ClassesWithTables > st.MatchedTables {
		t.Fatalf("ClassesWithTables = %d", st.ClassesWithTables)
	}
	if st.MeanScore <= 0.5 || st.MeanScore > 1 {
		t.Fatalf("MeanScore = %v", st.MeanScore)
	}
	// Tables must be reachable from the ontology now.
	found := false
	for _, m := range matches {
		for _, tb := range f.o.TablesAt(m.Class) {
			if tb == m.Table {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("Apply did not map tables")
	}
	hist := 0
	for _, h := range st.DepthHistogram {
		hist += h
	}
	if hist != st.MatchedTables {
		t.Fatal("depth histogram does not cover all matches")
	}
}

// TestEvaluateMatchingShape reproduces the Figure 6.4 shape: precision
// rises (or stays flat) and the number of matches falls as the threshold
// grows; the F1-optimal threshold is strictly inside (0,1).
func TestEvaluateMatchingShape(t *testing.T) {
	f := newFixture(t)
	thresholds := []float64{0.05, 0.2, 0.4, 0.6, 0.8, 0.95}
	quality := EvaluateMatching(f.o, f.fd.InstancesOf, f.fd.ConceptOf, thresholds,
		MatchConfig{ConceptClassesOnly: true})
	if len(quality) != len(thresholds) {
		t.Fatalf("quality rows = %d", len(quality))
	}
	for i, q := range quality {
		if q.Precision < 0 || q.Precision > 1 || q.Recall < 0 || q.Recall > 1 {
			t.Fatalf("quality out of range: %+v", q)
		}
		if i > 0 && q.Matched > quality[i-1].Matched {
			t.Fatal("matches must fall with threshold")
		}
		if i > 0 && q.Recall > quality[i-1].Recall+1e-12 {
			t.Fatal("recall must not rise with threshold")
		}
	}
	// Low thresholds must recall most of the gold standard.
	if quality[0].Recall < 0.8 {
		t.Fatalf("low-threshold recall too low: %+v", quality[0])
	}
	// Precision at moderate thresholds should be high (the generator's
	// concepts are well separated).
	if quality[2].Precision < 0.8 {
		t.Fatalf("precision too low at 0.4: %+v", quality[2])
	}
}

func TestEvaluateMatchingSubtreeCredit(t *testing.T) {
	// A match landing on a wikicategory leaf below the true concept class
	// counts as correct (subtree credit).
	cs := datagen.NewConceptSpace(4, 20, 40, 5)
	fd, err := datagen.Freebase(cs, datagen.FreebaseConfig{Domains: 2, TablesPerDomain: 4, RowsPerTable: 8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	o := datagen.YAGO(cs, datagen.YAGOConfig{CoverageProb: 0.95, Seed: 7})
	// Allow wikicategory candidates: some matches may land below the
	// concept class; they must still be credited.
	quality := EvaluateMatching(o, fd.InstancesOf, fd.ConceptOf, []float64{0.05}, MatchConfig{})
	if quality[0].Correct == 0 {
		t.Fatal("no correct matches with subtree credit")
	}
}

func TestWithin(t *testing.T) {
	o := ontology.New("root")
	a, _ := o.AddClass("a", 0)
	b, _ := o.AddClass("b", a)
	if !within(o, b, a) || !within(o, a, a) || !within(o, b, 0) {
		t.Fatal("within misses ancestors")
	}
	if within(o, a, b) {
		t.Fatal("within inverted")
	}
}

func TestQualityF1(t *testing.T) {
	// Hand-checkable precision/recall: 2 tables, one matched correctly.
	o := ontology.New("root")
	cid, _ := o.AddClass("wordnet_conceptA", 0)
	o.AddInstance(cid, "conceptA/i1")
	o.AddInstance(cid, "conceptA/i2")
	inst := map[string][]string{
		"t_good": {"conceptA/i1", "conceptA/i2"},
		"t_none": {"zzz/1", "zzz/2"},
	}
	truth := map[string]string{"t_good": "conceptA", "t_none": "conceptB"}
	q := EvaluateMatching(o, inst, truth, []float64{0.5}, MatchConfig{})
	if q[0].Matched != 1 || q[0].Correct != 1 {
		t.Fatalf("quality = %+v", q[0])
	}
	if math.Abs(q[0].Precision-1) > 1e-12 || math.Abs(q[0].Recall-0.5) > 1e-12 {
		t.Fatalf("P/R = %v/%v", q[0].Precision, q[0].Recall)
	}
	wantF1 := 2 * 1 * 0.5 / 1.5
	if math.Abs(q[0].F1-wantF1) > 1e-12 {
		t.Fatalf("F1 = %v, want %v", q[0].F1, wantF1)
	}
}
