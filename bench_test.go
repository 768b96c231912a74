// Benchmarks: one testing.B benchmark per table and figure of the
// thesis's evaluation sections (see DESIGN.md's experiment index), plus
// the ablation benches for the design decisions DESIGN.md calls out and
// micro-benchmarks of the public API. Each benchmark regenerates its
// experiment at a reduced-but-representative scale; `go run
// ./cmd/experiments` prints the same rows at full scale.
package keysearch

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/expt"
	"repro/internal/query"
)

// benchEnvs caches the shared experiment environments across benchmarks.
var benchEnvs struct {
	once    sync.Once
	movie   *expt.Env
	music   *expt.Env
	movieIn []datagen.Intent
	musicIn []datagen.Intent
	ambIn   []datagen.Intent
	fb      *expt.FreebaseEnv
	fbIn    []expt.FreebaseIntent
	err     error
}

func envs(b *testing.B) (movie, music *expt.Env, movieIn, musicIn, ambIn []datagen.Intent, fb *expt.FreebaseEnv, fbIn []expt.FreebaseIntent) {
	b.Helper()
	benchEnvs.once.Do(func() {
		benchEnvs.movie, benchEnvs.err = expt.NewMovieEnv(expt.Small, 1)
		if benchEnvs.err != nil {
			return
		}
		benchEnvs.music, benchEnvs.err = expt.NewMusicEnv(expt.Small, 1)
		if benchEnvs.err != nil {
			return
		}
		benchEnvs.movieIn = datagen.MovieWorkload(benchEnvs.movie.DB,
			datagen.WorkloadConfig{Queries: 25, MultiConceptFraction: 0.7, Seed: 2})
		benchEnvs.musicIn = datagen.MusicWorkload(benchEnvs.music.DB,
			datagen.WorkloadConfig{Queries: 20, MultiConceptFraction: 0.6, Seed: 3})
		benchEnvs.ambIn, benchEnvs.err = expt.PickAmbiguousIntents(benchEnvs.movie, benchEnvs.movieIn, 10)
		if benchEnvs.err != nil {
			return
		}
		benchEnvs.fb, benchEnvs.err = expt.NewFreebaseEnv(8, 12, 4)
		if benchEnvs.err != nil {
			return
		}
		benchEnvs.fbIn = expt.FreebaseWorkload(benchEnvs.fb, 20, 5)
	})
	if benchEnvs.err != nil {
		b.Fatal(benchEnvs.err)
	}
	return benchEnvs.movie, benchEnvs.music, benchEnvs.movieIn, benchEnvs.musicIn,
		benchEnvs.ambIn, benchEnvs.fb, benchEnvs.fbIn
}

// ---- Chapter 3 ----

func BenchmarkFig3_5_ProbabilityEstimates(b *testing.B) {
	movie, _, movieIn, _, _, _, _ := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig3_5(movie, movieIn, 0.2, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_6_ConstructionVsRanking(b *testing.B) {
	movie, _, movieIn, _, _, _, _ := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig3_6(movie, movieIn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_7_Usability(b *testing.B) {
	movie, _, movieIn, _, _, _, _ := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := expt.Fig3_7(movie, movieIn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_2_GreedyVsDBSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := expt.Table3_2([]int{5, 20}, []int{20}, 3, 2, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_3_GreedyVsKeywords(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := expt.Table3_3([]int{2, 4}, []int{20}, 10, 2, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_4_BruteForceVsGreedy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := expt.Table3_4([][2]int{{12, 6}, {16, 8}}, 5, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Chapter 4 ----

func BenchmarkTable4_1_DiversificationExample(b *testing.B) {
	movie, _, _, _, amb, _, _ := envs(b)
	if len(amb) == 0 {
		b.Skip("no ambiguous intents")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expt.Table4_1(movie, amb[0], 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4_1_ProbabilityRatio(b *testing.B) {
	movie, _, _, _, amb, _, _ := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig4_1(movie, amb, 25); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4_2_AlphaNDCGW(b *testing.B) {
	movie, _, _, _, amb, _, _ := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := expt.Fig4_2(movie, amb, []float64{0, 0.99}, 5, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4_3_WSRecall(b *testing.B) {
	movie, _, _, _, amb, _, _ := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := expt.Fig4_3(movie, amb, 5, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4_4_RelevanceVsNovelty(b *testing.B) {
	movie, _, _, _, amb, _, _ := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := expt.Fig4_4(movie, amb, []float64{1, 0.5, 0}, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Chapter 5 ----

func BenchmarkTable5_1_FreeQTranscript(b *testing.B) {
	_, _, _, _, _, fb, fbIn := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := false
		for _, in := range fbIn {
			if _, err := expt.Table5_1(fb, in); err == nil {
				done = true
				break
			}
		}
		if !done {
			b.Fatal("no resolvable transcript intent")
		}
	}
}

func BenchmarkTable5_2_WorkloadComplexity(b *testing.B) {
	_, _, _, _, _, fb, fbIn := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.Table5_2(fb, fbIn)
	}
}

func BenchmarkTable5_3_OntologySizes(b *testing.B) {
	_, _, _, _, _, fb, _ := envs(b)
	cfgs := []datagen.YAGOConfig{
		{BackboneDepth: 2, BackboneBranch: 2, Seed: 1},
		{BackboneDepth: 4, BackboneBranch: 3, Seed: 1},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.Table5_3(fb, cfgs)
	}
}

func BenchmarkFig5_2_QCOEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := expt.Fig5_2([]int{4, 8}, 10, 4, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_4_FreebaseInteractionCost(b *testing.B) {
	_, _, _, _, _, fb, fbIn := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := expt.Fig5_4_5(fb, fbIn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_5_FreebaseResponseTime(b *testing.B) {
	// Figure 5.5 shares the measurement loop with Figure 5.4; this bench
	// isolates the per-step option generation cost of a FreeQ session.
	_, _, _, _, _, fb, fbIn := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rows55, _, _, err := expt.Fig5_4_5(fb, fbIn[:10])
		if err != nil {
			b.Fatal(err)
		}
		_ = rows55
	}
}

// ---- Chapter 6 ----

func BenchmarkTable6_1_CategoryDistribution(b *testing.B) {
	_, _, _, _, _, fb, _ := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.Table6_1(fb)
	}
}

func BenchmarkTable6_2_InstanceDistribution(b *testing.B) {
	_, _, _, _, _, fb, _ := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.Table6_2(fb)
	}
}

func BenchmarkFig6_2_SharedInstances(b *testing.B) {
	_, _, _, _, _, fb, _ := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.Fig6_2(fb)
	}
}

func BenchmarkFig6_3_Matching(b *testing.B) {
	_, _, _, _, _, fb, _ := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.Fig6_3(fb, 0.5, 5)
	}
}

func BenchmarkTable6_3_YagoFStats(b *testing.B) {
	_, _, _, _, _, fb, _ := envs(b)
	matches, _ := expt.Fig6_3(fb, 0.5, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.Table6_3(fb, matches)
	}
}

func BenchmarkFig6_4_MatchingQuality(b *testing.B) {
	_, _, _, _, _, fb, _ := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.Fig6_4(fb, []float64{0.2, 0.5, 0.8})
	}
}

// ---- Ablations (design decisions called out in DESIGN.md) ----

func BenchmarkAblationThreshold(b *testing.B) {
	movie, _, _, _, amb, _, _ := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expt.AblationThreshold(movie, amb, []int{10, 20, 30}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationOptionPolicy(b *testing.B) {
	movie, _, _, _, amb, _, _ := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expt.AblationOptionPolicy(movie, amb); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSmoothing(b *testing.B) {
	movie, _, _, _, amb, _, _ := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expt.AblationSmoothing(movie, amb, []float64{0.5, 1, 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDivqEarlyStop(b *testing.B) {
	movie, _, _, _, amb, _, _ := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expt.AblationDivqEarlyStop(movie, amb, 5, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationOntologyFanout(b *testing.B) {
	_, _, _, _, _, fb, fbIn := envs(b)
	n := len(fbIn)
	if n > 10 {
		n = 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expt.AblationOntologyFanout(fb, fbIn[:n], []int{2, 4}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Public API micro-benchmarks ----

var apiOnce struct {
	sync.Once
	eng *Engine
	q   string
	err error
}

func apiEngine(b testing.TB) (*Engine, string) {
	b.Helper()
	apiOnce.Do(func() {
		apiOnce.eng, apiOnce.err = DemoMovies(7)
		if apiOnce.err != nil {
			return
		}
		qs := apiOnce.eng.SampleQueries(1)
		if len(qs) == 0 {
			apiOnce.q = "hanks"
		} else {
			apiOnce.q = qs[0]
		}
	})
	if apiOnce.err != nil {
		b.Fatal(apiOnce.err)
	}
	return apiOnce.eng, apiOnce.q
}

func BenchmarkAPISearch(b *testing.B) {
	eng, q := apiEngine(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Search(ctx, SearchRequest{Query: q, K: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAPISearchParallel(b *testing.B) {
	eng, q := apiEngine(b)
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := eng.Search(ctx, SearchRequest{Query: q, K: 5}); err != nil {
				b.Error(err) // Fatal must not be called from RunParallel workers
				return
			}
		}
	})
}

func BenchmarkAPIDiversify(b *testing.B) {
	eng, q := apiEngine(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Diversify(ctx, DiversifyRequest{Query: q, K: 5, Lambda: 0.1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAPIConstructSession(b *testing.B) {
	eng, q := apiEngine(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := constructDialogue(ctx, eng, q); err != nil {
			b.Fatal(err)
		}
	}
}

// constructDialogue is BenchmarkAPIConstructSession's dialogue: a
// construction of q that stops at 3 candidates, rejecting every
// question.
func constructDialogue(ctx context.Context, eng *Engine, q string) error {
	sess, err := eng.Construct(ctx, ConstructRequest{Query: q, StopAtRemaining: 3})
	if err != nil {
		return err
	}
	for !sess.Done() {
		question, ok := sess.Next()
		if !ok {
			break
		}
		if err := sess.Reject(ctx, question); err != nil {
			return err
		}
	}
	return nil
}

func BenchmarkAPIKeywordsPrefix(b *testing.B) {
	eng, q := apiEngine(b)
	prefix := q[:1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ks := eng.Keywords(prefix, 10); len(ks) == 0 {
			b.Fatal("no keywords")
		}
	}
}

func BenchmarkAPIBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := DemoMovies(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDataVsSchema compares the §2.2 families end to end.
func BenchmarkAblationDataVsSchema(b *testing.B) {
	movie, _, movieIn, _, _, _, _ := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := expt.AblationDataVsSchema(movie, movieIn[:10]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3_1_ExampleTasks regenerates the user-study task table.
func BenchmarkTable3_1_ExampleTasks(b *testing.B) {
	movie, _, movieIn, _, _, _, _ := envs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := expt.Table3_1(movie, movieIn, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpret times the interpretation stages of a ranked request
// on one DemoMovies snapshot: candidate generation, complete
// interpretation generation and ranking (ROADMAP item 6's baseline).
// kw=N joins the first N sample keywords.
func BenchmarkInterpret(b *testing.B) {
	eng, queries := interpretQueries(b)
	ctx := context.Background()
	for i, q := range queries {
		b.Run(fmt.Sprintf("kw=%d", i+1), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := interpret(ctx, eng, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// interpretQueries returns the API benchmarks' engine and
// BenchmarkInterpret's queries: the first one, two and three sample
// keywords.
func interpretQueries(tb testing.TB) (*Engine, []string) {
	tb.Helper()
	eng, _ := apiEngine(tb)
	toks := eng.SampleQueries(3)
	if len(toks) < 3 {
		tb.Fatalf("only %d sample keywords", len(toks))
	}
	return eng, []string{toks[0], strings.Join(toks[:2], " "), strings.Join(toks, " ")}
}

// interpret runs the interpretation stages of a ranked request for q on
// the engine's current snapshot.
func interpret(ctx context.Context, eng *Engine, q string) error {
	s := eng.current()
	c, _, err := eng.candidatesFor(ctx, s, q)
	if err != nil {
		return err
	}
	space, err := query.GenerateCompleteContext(ctx, c, s.cat, query.GenerateConfig{})
	if err != nil {
		return err
	}
	_, err = s.model.RankContext(ctx, space)
	return err
}

// interpretAllocCeilings bound the allocations of the interpretation
// stages of BenchmarkInterpret's kw=1, 2 and 3 requests, which measure
// 20, 31 and 43, and up to 23, 35 and 48 under -race, where sync.Pool
// drops a quarter of its puts. searchAllocCeiling bounds
// BenchmarkAPISearch's request (one keyword, K=5), and
// searchK10AllocCeiling a Search of the kw=2 query at K=10, the shape
// the serving benchmark's search.interp sends (19 interpretations, 10
// returned); they measure 26 and 44, and up to 29 and 48 under -race.
// constructAllocCeiling bounds BenchmarkAPIConstructSession's whole
// dialogue, which measures 51, and up to 54 under -race.
// Each ceiling sits just above its highest -race reading over 14 runs.
var interpretAllocCeilings = [3]float64{24, 37, 50}

const (
	searchAllocCeiling    = 31
	searchK10AllocCeiling = 50
	constructAllocCeiling = 56
)

// TestInterpretAllocationCeiling holds the interpretation stages of
// BenchmarkInterpret's kw=1, 2 and 3 requests to interpretAllocCeilings,
// whole Search requests to searchAllocCeiling and searchK10AllocCeiling,
// and BenchmarkAPIConstructSession's dialogue to constructAllocCeiling
// allocations (testing.AllocsPerRun warms once and runs at GOMAXPROCS 1).
func TestInterpretAllocationCeiling(t *testing.T) {
	eng, queries := interpretQueries(t)
	ctx := context.Background()
	check := func(name string, ceiling float64, f func() error) {
		t.Helper()
		got := testing.AllocsPerRun(50, func() {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations", name, got)
		if got > ceiling {
			t.Errorf("%s allocates %.0f times, above the ceiling %.0f", name, got, ceiling)
		}
	}
	for i, q := range queries {
		check(fmt.Sprintf("BenchmarkInterpret/kw=%d", i+1), interpretAllocCeilings[i], func() error { return interpret(ctx, eng, q) })
	}
	_, q := apiEngine(t)
	check("BenchmarkAPISearch", searchAllocCeiling, func() error {
		_, err := eng.Search(ctx, SearchRequest{Query: q, K: 5})
		return err
	})
	check("Search/kw=2/K=10", searchK10AllocCeiling, func() error {
		_, err := eng.Search(ctx, SearchRequest{Query: queries[1], K: 10})
		return err
	})
	check("BenchmarkAPIConstructSession", constructAllocCeiling, func() error { return constructDialogue(ctx, eng, q) })
}

// BenchmarkRows times the executor-heavy requests of the serving
// benchmark's rows.fresh workload in process: SearchRows and Diversify
// at 3:1 over a fixed pool of datagen movie queries (half multi-concept,
// seed 43) on a 20k-row IMDB fixture, join path 4, co-occurrence on and
// no answer cache, so every op plans, executes and assembles its rows.
// One op is one request.
func BenchmarkRows(b *testing.B) {
	m := newRowsMix(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.do(ctx, i); err != nil {
			b.Fatal(err)
		}
	}
}

// rowsMix is BenchmarkRows' fixture: the engine and its request mix.
type rowsMix struct {
	eng     *Engine
	intents []datagen.Intent
}

func newRowsMix(tb testing.TB) *rowsMix {
	tb.Helper()
	movies := 20_000 / 7 // the benchmark's dataset shape at 20k rows
	db, err := datagen.IMDB(datagen.IMDBConfig{
		Movies: movies, Actors: movies * 3 / 4, Directors: movies / 5, Companies: movies / 10, Seed: 42,
	})
	if err != nil {
		tb.Fatal(err)
	}
	intents := datagen.MovieWorkload(db, datagen.WorkloadConfig{Queries: 400, MultiConceptFraction: 0.5, Seed: 43})
	eng, err := NewFromDatabase(db, WithMaxJoinPath(4), WithCoOccurrence())
	if err != nil {
		tb.Fatal(err)
	}
	return &rowsMix{eng: eng, intents: intents}
}

// do sends request i of the mix: every fourth a Diversify, the rest
// SearchRows.
func (m *rowsMix) do(ctx context.Context, i int) error {
	q := strings.Join(m.intents[i%len(m.intents)].Keywords, " ")
	var err error
	if i%4 == 3 {
		_, err = m.eng.Diversify(ctx, DiversifyRequest{Query: q, K: 10, Lambda: 0.5})
	} else {
		_, err = m.eng.SearchRows(ctx, RowsRequest{Query: q, K: 10})
	}
	return err
}

// rowsAllocCeiling bounds the allocations of one BenchmarkRows request,
// averaged over a warm pass of the mix. The mix measures 570.7, and up
// to 622.5 under -race over 14 runs, where sync.Pool drops a quarter of
// its puts and executions pay for fresh scratch; the ceiling sits just
// above. rowsBytesCeiling bounds the bytes of one request the same way:
// the mix measures 91 755, and up to 131 198 under -race over the same
// runs. Listing the live rows of every unconstrained plan node cost
// 182 071 bytes per request without -race.
const (
	rowsAllocCeiling = 630
	rowsBytesCeiling = 133_000
)

// TestRowsAllocationCeiling holds BenchmarkRows' request mix to
// rowsAllocCeiling allocations and rowsBytesCeiling bytes per request:
// one pass warms the engine's caches, and a second is measured at
// GOMAXPROCS 1, as testing.AllocsPerRun measures.
func TestRowsAllocationCeiling(t *testing.T) {
	m := newRowsMix(t)
	ctx := context.Background()
	n := len(m.intents)
	pass := func() {
		for i := 0; i < n; i++ {
			if err := m.do(ctx, i); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(n)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("%.1f allocations, %.0f bytes per request", allocs, bytes)
	if allocs > rowsAllocCeiling {
		t.Errorf("BenchmarkRows' mix allocates %.1f times per request, above the ceiling %d", allocs, rowsAllocCeiling)
	}
	if bytes > rowsBytesCeiling {
		t.Errorf("BenchmarkRows' mix allocates %.0f bytes per request, above the ceiling %d", bytes, rowsBytesCeiling)
	}
}
