package keysearch

import (
	"encoding/json"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/datagen"
)

// answerCacheTestBudget is generous enough that differential runs hit
// the cache constantly (the point is correctness under hits, not
// eviction pressure — eviction has its own tests in internal/qcache).
const answerCacheTestBudget = 4 << 20

// churnEngine builds a mid-sized mutable engine for the differential
// tests. Each call constructs its own database, so cache-on and
// cache-off engines never share mutable state.
func churnEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	db, err := datagen.IMDB(datagen.IMDBConfig{Movies: 40, Actors: 30, Directors: 8, Companies: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	eng := fromDatabase(db, append([]Option{WithMutations(), WithCoOccurrence()}, opts...)...)
	if err := eng.Build(); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestWithAnswerCacheGating(t *testing.T) {
	if _, ok := builtEngine(t).AnswerCacheStats(); ok {
		t.Fatal("answer cache on by default")
	}
	if _, ok := builtEngine(t, WithAnswerCache(1<<20)).AnswerCacheStats(); !ok {
		t.Fatal("WithAnswerCache did not enable the cache")
	}
}

func TestAnswerCacheServesHits(t *testing.T) {
	eng := builtEngine(t, WithAnswerCache(1<<20))
	for i := 0; i < 3; i++ {
		if _, err := eng.SearchRows(bg, RowsRequest{Query: "hanks", K: 3}); err != nil {
			t.Fatal(err)
		}
	}
	stats, ok := eng.AnswerCacheStats()
	if !ok {
		t.Fatal("stats unavailable")
	}
	if stats.Hits == 0 || stats.Entries == 0 {
		t.Fatalf("repeated query never hit the cache: %+v", stats)
	}
	if stats.HighWaterBytes > stats.BudgetBytes {
		t.Fatalf("budget exceeded: %+v", stats)
	}
}

// TestAnswerCacheDifferentialChurn interleaves randomized Apply batches
// with repeated searches and asserts byte-identical responses between a
// cache-on and a cache-off engine at every step. The query set repeats
// across rounds, so later rounds exercise genuine cache hits, the
// invalidation of entries the batches touched, and re-publication —
// exactly the churn regime the footprint-intersection argument covers.
func TestAnswerCacheDifferentialChurn(t *testing.T) {
	on := churnEngine(t, WithAnswerCache(answerCacheTestBudget))
	off := churnEngine(t)

	queries := append(off.SampleQueries(4), "north south", "matrix runner")
	compare := func(round int) {
		t.Helper()
		for _, q := range queries {
			for name, run := range map[string]func(e *Engine) (any, error){
				"search": func(e *Engine) (any, error) {
					return e.Search(bg, SearchRequest{Query: q, K: 5, RowLimit: 3})
				},
				"rows": func(e *Engine) (any, error) {
					return e.SearchRows(bg, RowsRequest{Query: q, K: 5})
				},
				"diversify": func(e *Engine) (any, error) {
					return e.Diversify(bg, DiversifyRequest{Query: q, K: 4, Lambda: 0.5})
				},
			} {
				got, gotErr := run(on)
				want, wantErr := run(off)
				gj, wj := asJSON(t, got, gotErr), asJSON(t, want, wantErr)
				if gj != wj {
					t.Fatalf("round %d: %s(%q) diverges with the answer cache on:\n  cache-on:  %.300s\n  cache-off: %.300s",
						round, name, q, gj, wj)
				}
			}
		}
	}

	compare(0) // cold
	compare(0) // warm: second pass serves from the cache

	rng := rand.New(rand.NewSource(7))
	serial := 0
	for round := 1; round <= 6; round++ {
		muts := randomMutations(rng, on, 1+rng.Intn(5), &serial)
		if _, err := on.Apply(bg, muts); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if _, err := off.Apply(bg, muts); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		compare(round)
	}

	stats, _ := on.AnswerCacheStats()
	if stats.Hits == 0 {
		t.Fatalf("differential run never hit the cache — the comparison was vacuous: %+v", stats)
	}
	if stats.Invalidations == 0 {
		t.Fatalf("mutation churn never invalidated an entry — the comparison was vacuous: %+v", stats)
	}
	if stats.HighWaterBytes > stats.BudgetBytes {
		t.Fatalf("budget exceeded under churn: %+v", stats)
	}
}

// TestAnswerCacheWarmRestartDifferential checkpoints a durable engine
// with a warm answer cache, recovers it with Open, and asserts (a) the
// cache actually restarted warm and (b) responses after the warm
// restart are byte-identical to a cache-off recovery of the same
// directory — including after fresh mutation churn on both.
func TestAnswerCacheWarmRestartDifferential(t *testing.T) {
	dir := t.TempDir()
	opts := []Option{WithMutations(), WithCoOccurrence(), WithAnswerCache(answerCacheTestBudget)}

	eng := churnEngine(t, append([]Option{WithDurability(dir)}, opts[2:]...)...)
	queries := eng.SampleQueries(3)
	warm := func(e *Engine) {
		t.Helper()
		for _, q := range queries {
			if _, err := e.SearchRows(bg, RowsRequest{Query: q, K: 5}); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Diversify(bg, DiversifyRequest{Query: q, K: 4, Lambda: 0.5}); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(13))
	serial := 0
	warm(eng)
	if _, err := eng.Apply(bg, randomMutations(rng, eng, 3, &serial)); err != nil {
		t.Fatal(err)
	}
	warm(eng)
	if _, err := eng.Checkpoint(bg); err != nil {
		t.Fatal(err)
	}
	// Mutations after the checkpoint land in the WAL: recovery must
	// replay them THROUGH the cache's invalidation path.
	if _, err := eng.Apply(bg, randomMutations(rng, eng, 3, &serial)); err != nil {
		t.Fatal(err)
	}
	warm(eng)
	if err := eng.Close(); err != nil { // final checkpoint persists the hot set
		t.Fatal(err)
	}

	// Warm recovery first. (Order matters: every Close rewrites the
	// snapshot via a final checkpoint, and a cache-off engine writes no
	// qcache section — opening the oracle first would strip the hot set
	// before the warm open got to see it.)
	onEng, err := Open(dir, WithMutations(), WithAnswerCache(answerCacheTestBudget))
	if err != nil {
		t.Fatal(err)
	}
	stats, ok := onEng.AnswerCacheStats()
	if !ok || stats.Entries == 0 {
		t.Fatalf("recovery did not restore a warm cache: %+v (ok=%v)", stats, ok)
	}
	warmResp := make(map[string]string)
	for _, q := range queries {
		r, rErr := onEng.SearchRows(bg, RowsRequest{Query: q, K: 5})
		warmResp["rows:"+q] = asJSON(t, r, rErr)
		d, dErr := onEng.Diversify(bg, DiversifyRequest{Query: q, K: 4, Lambda: 0.5})
		warmResp["div:"+q] = asJSON(t, d, dErr)
	}
	warmStats, _ := onEng.AnswerCacheStats()
	if warmStats.Hits == 0 {
		t.Fatalf("restored hot set never served a hit: %+v", warmStats)
	}
	if err := onEng.Close(); err != nil {
		t.Fatal(err)
	}

	// Cache-off recovery of the same directory: the oracle.
	offEng, err := Open(dir, WithMutations())
	if err != nil {
		t.Fatal(err)
	}
	defer offEng.Close()
	nonTrivial := 0
	for _, q := range queries {
		r, rErr := offEng.SearchRows(bg, RowsRequest{Query: q, K: 5})
		wantRows := asJSON(t, r, rErr)
		d, dErr := offEng.Diversify(bg, DiversifyRequest{Query: q, K: 4, Lambda: 0.5})
		wantDiv := asJSON(t, d, dErr)
		if warmResp["rows:"+q] != wantRows {
			t.Fatalf("SearchRows(%q) diverges after warm restart:\n  warm:   %.300s\n  oracle: %.300s", q, warmResp["rows:"+q], wantRows)
		}
		if warmResp["div:"+q] != wantDiv {
			t.Fatalf("Diversify(%q) diverges after warm restart:\n  warm:   %.300s\n  oracle: %.300s", q, warmResp["div:"+q], wantDiv)
		}
		if len(wantRows) > len(`{"query":"`)+len(q)+2 {
			nonTrivial++
		}
	}
	if nonTrivial == 0 {
		t.Fatal("warm-restart comparison was vacuous: every response empty")
	}
}

// TestAnswerCacheConcurrentChurn hammers a cache-on engine with
// concurrent repeated searches while the writer toggles a sentinel row,
// under -race: every reader must observe one of the legal pre/post
// responses, never a torn or stale-cache mixture.
func TestAnswerCacheConcurrentChurn(t *testing.T) {
	eng := builtEngine(t, WithMutations(), WithAnswerCache(answerCacheTestBudget))

	search := func(q string) string {
		resp, err := eng.Search(bg, SearchRequest{Query: q, K: 3, RowLimit: 2})
		if err != nil {
			return "error: " + err.Error()
		}
		b, _ := json.Marshal(resp)
		return string(b)
	}
	rows := func(q string) string {
		resp, err := eng.SearchRows(bg, RowsRequest{Query: q, K: 3})
		if err != nil {
			return "error: " + err.Error()
		}
		b, _ := json.Marshal(resp)
		return string(b)
	}
	toggle := func(v string) {
		if _, err := eng.Apply(bg, []Mutation{{Op: OpUpdate, Table: "movie", Key: "m1", Values: []string{"m1", "The Terminal " + v, "2004"}}}); err != nil {
			t.Fatal(err)
		}
	}
	// Enumerate the legal responses for both entry points by toggling
	// once before starting the race.
	legal := map[string]bool{search("terminal"): true, rows("terminal"): true}
	toggle("Redux")
	legal[search("terminal")] = true
	legal[rows("terminal")] = true
	toggle("")
	legal[search("terminal")] = true
	legal[rows("terminal")] = true

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := search("terminal"); !legal[got] {
					select {
					case errs <- got:
					default:
					}
					return
				}
				if got := rows("terminal"); !legal[got] {
					select {
					case errs <- got:
					default:
					}
					return
				}
			}
		}()
	}
	for i := 0; i < 30; i++ {
		toggle("Redux")
		toggle("")
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("reader observed illegal response with the answer cache on: %.300s", e)
	}
	stats, _ := eng.AnswerCacheStats()
	if stats.HighWaterBytes > stats.BudgetBytes {
		t.Fatalf("budget exceeded under concurrency: %+v", stats)
	}
}
