package keysearch

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/query"
)

// TestConcurrentSearchSharedEngine exercises the immutable-after-Build
// contract: one built Engine serves many goroutines running every query
// entry point at once. Run with -race.
func TestConcurrentSearchSharedEngine(t *testing.T) {
	eng, err := DemoMovies(7)
	if err != nil {
		t.Fatal(err)
	}
	queries := eng.SampleQueries(6)
	if len(queries) == 0 {
		t.Fatal("no sample queries")
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*4*len(queries))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, q := range queries {
				if _, err := eng.Search(bg, SearchRequest{Query: q, K: 3, RowLimit: 1}); err != nil {
					errs <- err
				}
				if _, err := eng.Diversify(bg, DiversifyRequest{Query: q, K: 3, Lambda: 0.1}); err != nil {
					errs <- err
				}
				if ks := eng.Keywords(q[:1], 5); len(ks) == 0 {
					errs <- errors.New("no keywords for prefix " + q[:1])
				}
				// Each goroutine drives its own construction session.
				if (w+i)%3 == 0 {
					sess, err := eng.Construct(bg, ConstructRequest{Query: q, StopAtRemaining: 3})
					if err != nil {
						errs <- err
						continue
					}
					for !sess.Done() {
						question, ok := sess.Next()
						if !ok {
							break
						}
						if err := sess.Reject(bg, question); err != nil {
							errs <- err
							break
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCancelledContextAborts proves an already-cancelled context aborts
// every pipeline stage early, including interpretation materialisation.
func TestCancelledContextAborts(t *testing.T) {
	eng := builtEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := eng.Search(ctx, SearchRequest{Query: "london", K: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Search error = %v, want context.Canceled", err)
	}
	if _, err := eng.Diversify(ctx, DiversifyRequest{Query: "london", K: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Diversify error = %v, want context.Canceled", err)
	}
	if _, err := eng.SearchRows(ctx, RowsRequest{Query: "london", K: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchRows error = %v, want context.Canceled", err)
	}
	if _, err := eng.Construct(ctx, ConstructRequest{Query: "london 2010"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Construct error = %v, want context.Canceled", err)
	}

	// Target the materialisation stage directly: candidates generated
	// under a live context, the interpretation space materialised under a
	// cancelled one.
	c, _, err := eng.candidatesFor(context.Background(), eng.current(), "london 2010")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := query.GenerateCompleteContext(ctx, c, eng.current().cat, query.GenerateConfig{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("GenerateCompleteContext error = %v, want context.Canceled", err)
	}
	if _, err := eng.current().model.RankContext(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("RankContext error = %v, want context.Canceled", err)
	}
}

// TestExpiredDeadlineAborts covers the deadline flavour of cancellation.
func TestExpiredDeadlineAborts(t *testing.T) {
	eng := builtEngine(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := eng.Search(ctx, SearchRequest{Query: "london"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Search error = %v, want context.DeadlineExceeded", err)
	}
}

// TestCancelledAnswerKeepsSessionUsable: a cancelled Accept reports the
// error, and the session still finishes under a live context.
func TestCancelledAnswerKeepsSessionUsable(t *testing.T) {
	eng := builtEngine(t)
	sess, err := eng.Construct(bg, ConstructRequest{Query: "london 2010", StopAtRemaining: 1})
	if err != nil {
		t.Fatal(err)
	}
	question, ok := sess.Next()
	if !ok {
		t.Skip("query converged without questions")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	// The decision is recorded even when the follow-up expansion is
	// cancelled; the error must surface.
	_ = sess.Reject(cancelled, question)
	for !sess.Done() {
		q, ok := sess.Next()
		if !ok {
			break
		}
		if err := sess.Reject(bg, q); err != nil {
			t.Fatal(err)
		}
	}
	_ = sess.Candidates() // must not panic
}
