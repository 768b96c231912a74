package keysearch_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	keysearch "repro"
	"repro/internal/loadgen"
	"repro/internal/trace"
)

// zipfCounts is what one replay of the skewed stream did.
type zipfCounts struct {
	hits, misses, admissionRejects uint64
	entries                        int
	// plansExecuted, and the plans among them answered from the cache,
	// are summed from the requests' traces.
	plansExecuted, planHits int64
}

// replayZipf runs ops through eng one after another, each request under
// its own trace, and returns every response body and the counts.
func replayZipf(t *testing.T, eng *keysearch.Engine, ops []loadgen.Op) ([][]byte, zipfCounts) {
	t.Helper()
	var c zipfCounts
	bodies := make([][]byte, len(ops))
	for i, op := range ops {
		tr := trace.New("")
		ctx := trace.NewContext(context.Background(), tr)
		var (
			resp any
			err  error
		)
		switch op.Kind {
		case loadgen.OpSearch:
			var req keysearch.SearchRequest
			if err = json.Unmarshal(op.Body, &req); err == nil {
				resp, err = eng.Search(ctx, req)
			}
		case loadgen.OpRows:
			var req keysearch.RowsRequest
			if err = json.Unmarshal(op.Body, &req); err == nil {
				resp, err = eng.SearchRows(ctx, req)
			}
		case loadgen.OpDiversify:
			var req keysearch.DiversifyRequest
			if err = json.Unmarshal(op.Body, &req); err == nil {
				resp, err = eng.Diversify(ctx, req)
			}
		default:
			t.Fatalf("op %d: unexpected kind %q", i, op.Kind)
		}
		if err != nil {
			t.Fatalf("op %d (%s %q): %v", i, op.Kind, op.Query, err)
		}
		if bodies[i], err = json.Marshal(resp); err != nil {
			t.Fatal(err)
		}
		counters := tr.Snapshot().Counters
		c.plansExecuted += counters["plans_executed"]
		c.planHits += counters["answer_cache_plan_hits"]
	}
	if s, ok := eng.AnswerCacheStats(); ok {
		c.hits, c.misses, c.admissionRejects, c.entries = s.Hits, s.Misses, s.AdmissionRejects, s.Entries
	}
	return bodies, c
}

// TestAnswerCacheServesZipfStream is the answer cache's counted guard.
// The stream is the shape real keyword-search logs have: 512 requests
// (20% search, 60% rows, 20% diversify) drawn Zipf (s=1.4, seed 42) from
// a 16-query hot set over a 4 000-row generated movies dataset. It is
// replayed in process, one request at a time, on an engine with the
// answer cache off and on one with a 64 MiB cache. Both sides must
// answer byte-identically and execute the same plans, and the cache must
// serve the stream with exactly the pinned hits, misses, admission
// rejects and entries. A 2Q admission that admits nothing, or a hit
// whose answer is never returned, fails here on any machine, with no
// timing.
func TestAnswerCacheServesZipfStream(t *testing.T) {
	db, err := loadgen.BuildDataset(loadgen.DatasetConfig{Kind: loadgen.KindMovies, TargetRows: 4000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ops, err := loadgen.BuildWorkload(db, loadgen.KindMovies, loadgen.WorkloadConfig{
		Ops: 512, Seed: 42, Mix: loadgen.Mix{Search: 20, Rows: 60, Diversify: 20}, ZipfS: 1.4, HotSet: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	replay := func(opts ...keysearch.Option) ([][]byte, zipfCounts) {
		eng, err := loadgen.NewEngine(db, loadgen.KindMovies, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return replayZipf(t, eng, ops)
	}
	offBodies, off := replay()
	onBodies, on := replay(keysearch.WithAnswerCache(64 << 20))
	t.Logf("cache off: %+v", off)
	t.Logf("cache on:  %+v", on)

	for i := range ops {
		if !bytes.Equal(onBodies[i], offBodies[i]) {
			t.Fatalf("op %d (%s %q): cache on answered\n%.300s\ncache off answered\n%.300s",
				i, ops[i].Kind, ops[i].Query, onBodies[i], offBodies[i])
		}
	}
	if want := (zipfCounts{plansExecuted: 1203}); off != want {
		t.Errorf("cache off counted %+v, want %+v", off, want)
	}
	if want := (zipfCounts{hits: 2663, misses: 496, admissionRejects: 270, entries: 226, plansExecuted: 1203, planHits: 981}); on != want {
		t.Errorf("cache on counted %+v, want %+v", on, want)
	}
}
