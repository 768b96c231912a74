package expt

import (
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/metrics"
)

func movieEnv(t *testing.T) (*Env, []datagen.Intent) {
	t.Helper()
	env, err := NewMovieEnv(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	intents := datagen.MovieWorkload(env.DB, datagen.WorkloadConfig{Queries: 20, MultiConceptFraction: 0.5, Seed: 2})
	return env, intents
}

func musicEnv(t *testing.T) (*Env, []datagen.Intent) {
	t.Helper()
	env, err := NewMusicEnv(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	intents := datagen.MusicWorkload(env.DB, datagen.WorkloadConfig{Queries: 15, MultiConceptFraction: 0.5, Seed: 2})
	return env, intents
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Headers: []string{"a", "bb"}}
	tb.AddRow(1, 2.5)
	tb.Notes = append(tb.Notes, "hello")
	s := tb.String()
	for _, want := range []string{"== T ==", "a", "bb", "2.500", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestFig3_5ShapesHold(t *testing.T) {
	env, err := NewMovieEnv(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The Figure 3.5 workload: predominantly multi-concept queries of 2–5
	// terms (the thesis workload averages four terms).
	intents := datagen.MovieWorkload(env.DB, datagen.WorkloadConfig{
		Queries: 40, MultiConceptFraction: 0.7, Seed: 2,
	})
	res, err := Fig3_5(env, intents, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ATF) < 20 {
		t.Fatalf("too few usable queries: %d", len(res.ATF))
	}
	// The paper's claim: informed estimates cut the interaction cost vs
	// the uniform baseline (≈50% in the thesis; our attribute-granularity
	// spaces are smaller, so we require a strict mean improvement —
	// EXPERIMENTS.md records the magnitude).
	if metrics.Mean(res.ATF) >= metrics.Mean(res.Baseline) {
		t.Fatalf("ATF (%.2f) did not beat baseline (%.2f)",
			metrics.Mean(res.ATF), metrics.Mean(res.Baseline))
	}
	if len(res.Table.Rows) != len(res.ATF) {
		t.Fatal("table rows inconsistent with samples")
	}
}

func TestFig3_5TemplateLogHelpsSkewedDataset(t *testing.T) {
	env, intents := musicEnv(t)
	res, err := Fig3_5(env, intents, 0.85, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ATF) < 5 {
		t.Skipf("too few usable queries: %d", len(res.ATF))
	}
	// Lyrics-like skewed logs: the log prior must not hurt on average.
	if metrics.Mean(res.ATFLog) > metrics.Mean(res.ATF)+1.0 {
		t.Fatalf("skewed template log hurt construction: %.2f vs %.2f",
			metrics.Mean(res.ATFLog), metrics.Mean(res.ATF))
	}
}

func TestFig3_6VarianceShape(t *testing.T) {
	env, intents := movieEnv(t)
	res, err := Fig3_6(env, intents)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Construction) < 5 {
		t.Fatalf("too few samples: %d", len(res.Construction))
	}
	rank := metrics.Summarize(res.RankIQP)
	cons := metrics.Summarize(res.Construction)
	// Figure 3.6: construction has a much lower worst case than ranking
	// whenever ranking has hard queries.
	if rank.Max > 20 && cons.Max >= rank.Max {
		t.Fatalf("construction worst case (%v) should undercut ranking (%v)", cons.Max, rank.Max)
	}
	// Sanity: all three series populated and positive.
	for _, s := range [][]float64{res.RankSQAK, res.RankIQP, res.Construction} {
		for _, v := range s {
			if v < 1 {
				t.Fatalf("interaction cost below 1: %v", v)
			}
		}
	}
}

func TestFig3_7Crossover(t *testing.T) {
	env, intents := movieEnv(t)
	rows, table, err := Fig3_7(env, intents)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no categories")
	}
	if len(table.Rows) != len(rows) {
		t.Fatal("table/rows mismatch")
	}
	// Category 0 (intent within the first page): ranking is faster.
	if rows[0].Category == 0 && rows[0].RankSeconds >= rows[0].ConstructSeconds {
		t.Fatalf("category 0 should favour ranking: %+v", rows[0])
	}
	// For any high category, construction must win (the Figure 3.7
	// crossover).
	for _, r := range rows {
		if r.Category >= 3 && r.ConstructSeconds >= r.RankSeconds {
			t.Fatalf("category %d should favour construction: %+v", r.Category, r)
		}
	}
}

func TestTable3_2Growth(t *testing.T) {
	rows, table, err := Table3_2([]int{5, 20}, []int{10, 20}, 3, 3, 77)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Interpretations <= rows[0].Interpretations {
		t.Fatalf("space should grow with tables: %v vs %v",
			rows[0].Interpretations, rows[1].Interpretations)
	}
	// Steps grow far slower than the space.
	growthSpace := rows[1].Interpretations / rows[0].Interpretations
	growthSteps := rows[1].Steps[20] / rows[0].Steps[20]
	if growthSteps > growthSpace {
		t.Fatalf("steps grew faster than space: %v vs %v", growthSteps, growthSpace)
	}
}

func TestTable3_3Growth(t *testing.T) {
	rows, _, err := Table3_3([]int{2, 4}, []int{20}, 10, 3, 78)
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].Interpretations <= rows[0].Interpretations {
		t.Fatal("space should grow with keywords")
	}
}

func TestTable3_4GreedyNearOptimal(t *testing.T) {
	rows, table, err := Table3_4([][2]int{{8, 4}, {16, 8}}, 5, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatal("table rows")
	}
	for _, r := range rows {
		if r.GreedyCost < r.BruteCost-1e-9 {
			t.Fatalf("greedy beat brute force: %+v", r)
		}
		if r.RelativeDifferencePct > 10 {
			t.Fatalf("greedy more than 10%% off: %+v", r)
		}
	}
}

func TestCh4Pipeline(t *testing.T) {
	env, intents := movieEnv(t)
	amb, err := PickAmbiguousIntents(env, intents, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(amb) == 0 {
		t.Fatal("no ambiguous intents")
	}

	// Table 4.1 example.
	table41, err := Table4_1(env, amb[0], 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(table41.Rows) == 0 {
		t.Fatal("empty Table 4.1")
	}

	// Figure 4.1.
	f41, err := Fig4_1(env, amb, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(f41.AvgPR) == 0 {
		t.Fatal("no PR data")
	}
	// The probability ratio decays: late ranks carry less than rank 2.
	if last := f41.AvgPR[len(f41.AvgPR)-1]; last > f41.AvgPR[0] {
		t.Fatalf("PR should decay: first %v last %v", f41.AvgPR[0], last)
	}

	// Figure 4.2.
	points, _, err := Fig4_2(env, amb, []float64{0, 0.99}, 5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no Fig 4.2 points")
	}
	// At alpha=0 ranking dominates (or ties) diversification at k=1.
	for _, p := range points {
		if p.K == 1 && p.Ranking+1e-9 < p.Diversified && p.Alpha == 0 {
			t.Fatalf("diversification cannot beat ranking at k=1, α=0: %+v", p)
		}
	}

	// Figure 4.3: WS-recall of diversification ≥ ranking on average at
	// the largest k.
	f43, _, err := Fig4_3(env, amb, 5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f43) == 0 {
		t.Fatal("no Fig 4.3 points")
	}
	last := f43[len(f43)-1]
	if last.Diversified < last.Ranking-0.05 {
		t.Fatalf("diversified WS-recall collapsed: %+v", last)
	}

	// Figure 4.4: relevance decreases (weakly) as λ decreases.
	f44, _, err := Fig4_4(env, amb, []float64{1.0, 0.5, 0.0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(f44) != 3 {
		t.Fatal("λ sweep size")
	}
	if f44[2].Relevance > f44[0].Relevance+1e-9 {
		t.Fatalf("relevance should not grow as λ falls: %+v", f44)
	}
	if f44[2].Novelty < f44[0].Novelty-1e-9 {
		t.Fatalf("novelty should not fall as λ falls: %+v", f44)
	}

	// Early-stop ablation yields identical output.
	if _, err := AblationDivqEarlyStop(env, amb, 5, 0.1); err != nil {
		t.Fatal(err)
	}
}

func TestCh5Pipeline(t *testing.T) {
	env, err := NewFreebaseEnv(6, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	intents := FreebaseWorkload(env, 25, 6)
	if len(intents) != 25 {
		t.Fatalf("intents = %d", len(intents))
	}

	// Table 5.2 covers every complexity class present.
	rows52, t52 := Table5_2(env, intents)
	if len(rows52) == 0 || len(t52.Rows) == 0 {
		t.Fatal("empty Table 5.2")
	}

	// Table 5.3 ontology sweep.
	rows53, _ := Table5_3(env, []datagen.YAGOConfig{
		{BackboneDepth: 2, BackboneBranch: 2, Seed: 9},
		{BackboneDepth: 4, BackboneBranch: 3, Seed: 9},
	})
	if len(rows53) != 2 || rows53[1].Classes <= rows53[0].Classes {
		t.Fatalf("ontology sweep wrong: %+v", rows53)
	}

	// Figures 5.4/5.5.
	rows54, rows55, t54, t55, err := Fig5_4_5(env, intents)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows54) == 0 || len(rows55) == 0 || len(t54.Rows) == 0 || len(t55.Rows) == 0 {
		t.Fatal("empty Fig 5.4/5.5")
	}
	// FreeQ must not lose to IQP on average in any complexity class of
	// this wide flat schema.
	for _, r := range rows54 {
		if r.FreeQSteps > r.IQPSteps+1e-9 {
			t.Fatalf("FreeQ lost to IQP at complexity %d: %+v", r.Complexity, r)
		}
	}

	// Table 5.1 transcript for the first resolvable single-keyword intent.
	for _, in := range intents {
		if in.Complexity != 1 {
			continue
		}
		tr, err := Table5_1(env, in)
		if err == nil {
			if len(tr.Rows) == 0 {
				t.Fatal("empty transcript")
			}
			break
		}
	}
}

func TestFig5_2Shape(t *testing.T) {
	rows, table, err := Fig5_2([]int{3, 10}, 10, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(table.Rows) != 2 {
		t.Fatal("rows")
	}
	// Ontology QCOs must stay more efficient than attribute options on
	// the larger schema.
	big := rows[1]
	if big.OntologyEfficiency <= big.AttributeEfficiency {
		t.Fatalf("ontology QCOs not more efficient on big schema: %+v", big)
	}
	if big.OntologySteps >= big.AttributeSteps {
		t.Fatalf("ontology QCOs not cheaper on big schema: %+v", big)
	}
}

func TestCh6Pipeline(t *testing.T) {
	env, err := NewFreebaseEnv(5, 8, 21)
	if err != nil {
		t.Fatal(err)
	}
	t61 := Table6_1(env)
	if len(t61.Rows) == 0 {
		t.Fatal("empty Table 6.1")
	}
	t62 := Table6_2(env)
	if len(t62.Rows) == 0 {
		t.Fatal("empty Table 6.2")
	}
	overlaps, t62f := Fig6_2(env)
	if len(overlaps) != 5 || len(t62f.Rows) != 5 {
		t.Fatalf("domains = %d", len(overlaps))
	}
	matches, _ := Fig6_3(env, 0.5, 5)
	if len(matches) == 0 {
		t.Fatal("no matches")
	}
	st, t63 := Table6_3(env, matches)
	if st.MatchedTables != len(matches) || len(t63.Rows) == 0 {
		t.Fatal("Table 6.3 inconsistent")
	}
	quality, t64 := Fig6_4(env, []float64{0.1, 0.5, 0.9})
	if len(quality) != 3 || len(t64.Rows) != 3 {
		t.Fatal("Fig 6.4 rows")
	}
	// Shape: matches fall with threshold; precision at 0.5 is high.
	if quality[2].Matched > quality[0].Matched {
		t.Fatal("matches should fall with threshold")
	}
	if quality[1].Precision < 0.8 {
		t.Fatalf("precision too low: %+v", quality[1])
	}
}

func TestAblations(t *testing.T) {
	env, intents := movieEnv(t)
	tp, err := AblationOptionPolicy(env, intents[:10])
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.Rows) != 2 {
		t.Fatal("policy rows")
	}
	ts, err := AblationSmoothing(env, intents[:10], []float64{0.5, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Rows) != 3 {
		t.Fatal("smoothing rows")
	}
	tt, err := AblationThreshold(env, intents[:10], []int{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(tt.Rows) != 3 {
		t.Fatal("threshold rows")
	}
}

func TestAblationOntologyFanout(t *testing.T) {
	env, err := NewFreebaseEnv(4, 8, 31)
	if err != nil {
		t.Fatal(err)
	}
	intents := FreebaseWorkload(env, 10, 32)
	table, err := AblationOntologyFanout(env, intents, []int{2, 4}, 33)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatal("fanout rows")
	}
}

func TestIntentRelevance(t *testing.T) {
	env, intents := movieEnv(t)
	for _, in := range intents[:5] {
		c := env.Candidates(in.Keywords)
		space := env.Space(c, 0)
		intended, ok := env.ResolveIntent(in, space)
		if !ok {
			continue
		}
		rel := IntentRelevance(in)
		if got := rel(intended); got != 1 {
			t.Fatalf("intended relevance = %v, want 1", got)
		}
		for _, q := range space {
			r := rel(q)
			if r < 0 || r > 1 {
				t.Fatalf("relevance out of range: %v", r)
			}
		}
		return
	}
	t.Skip("no resolvable intent")
}

func TestTable3_1(t *testing.T) {
	env, intents := movieEnv(t)
	rows, table, err := Table3_1(env, intents, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(table.Rows) != len(rows) {
		t.Fatal("empty Table 3.1")
	}
	for i, r := range rows {
		if r.C1 < 1 || r.C2 < 0 || r.SpaceSize < r.C1 {
			t.Fatalf("implausible row: %+v", r)
		}
		if i > 0 && r.C1 > rows[i-1].C1 {
			t.Fatal("rows not sorted by difficulty")
		}
	}
}

func TestAblationDataVsSchema(t *testing.T) {
	env, intents := movieEnv(t)
	table, err := AblationDataVsSchema(env, intents[:8])
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
}
