package query

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestGenerateCompleteParallelEquivalence locks the shard/merge contract:
// at every parallelism level, with and without the MaxInterpretations
// cap, parallel generation returns exactly the sequential output — same
// interpretations, same order.
func TestGenerateCompleteParallelEquivalence(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	for _, kws := range [][]string{
		{"hanks"},
		{"hanks", "2001"},
		{"hanks", "tom", "2001"},
	} {
		c := GenerateCandidates(f.ix, kws, GenerateOptionsConfig{})
		for _, cap := range []int{0, 1, 2, 5} {
			want, err := GenerateCompleteContext(ctx, c, f.cat, GenerateConfig{MaxInterpretations: cap})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{2, 4, 8} {
				got, err := GenerateCompleteContext(ctx, c, f.cat, GenerateConfig{
					MaxInterpretations: cap, Parallelism: p,
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("kws=%v cap=%d p=%d: %d interpretations, want %d",
						kws, cap, p, len(got), len(want))
				}
				for i := range want {
					if got[i].Key() != want[i].Key() {
						t.Fatalf("kws=%v cap=%d p=%d: order diverges at %d:\n got %s\nwant %s",
							kws, cap, p, i, got[i].Key(), want[i].Key())
					}
				}
			}
		}
	}
}

// TestGenerateCompleteParallelCancelled asserts parallel generation
// surfaces cancellation rather than partial output.
func TestGenerateCompleteParallelCancelled(t *testing.T) {
	f := newFixture(t)
	c := GenerateCandidates(f.ix, []string{"hanks", "2001"}, GenerateOptionsConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := GenerateCompleteContext(ctx, c, f.cat, GenerateConfig{Parallelism: 4}); err == nil {
		t.Fatal("expected context error from cancelled parallel generation")
	}
}

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

// TestGenerateCompleteObservesCancelBetweenShards: a context cancelled
// after the entry check stops generation at the next shard boundary,
// sequential and parallel alike, even when no shard is large enough for
// enumeration's own periodic check to fire.
func TestGenerateCompleteObservesCancelBetweenShards(t *testing.T) {
	f := newFixture(t)
	c := GenerateCandidates(f.ix, []string{"hanks", "tom", "2001"}, GenerateOptionsConfig{})
	for _, p := range []int{1, 4} {
		out, err := GenerateCompleteContext(newCountdownCtx(1), c, f.cat, GenerateConfig{Parallelism: p})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: err = %v with %d interpretations, want context.Canceled", p, err, len(out))
		}
	}
}

// TestMergerChecksContextWithinShard: one huge shard is cut short within
// enumerateCheckEvery interpretations of cancellation, not keyed to the
// end.
func TestMergerChecksContextWithinShard(t *testing.T) {
	f := newFixture(t)
	c := GenerateCandidates(f.ix, []string{"hanks"}, GenerateOptionsConfig{})
	one := GenerateComplete(c, f.cat, GenerateConfig{MaxInterpretations: 1})
	if len(one) != 1 {
		t.Fatalf("fixture yields %d interpretations, want 1", len(one))
	}
	shard := make([]*Interpretation, 3*enumerateCheckEvery)
	for i := range shard {
		shard[i] = one[0]
	}
	ctx := newCountdownCtx(1) // the check at 0 passes, the one at enumerateCheckEvery fails
	if _, err := newInterpretationMerger(GenerateConfig{}).add(ctx, shard); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if left := ctx.budget.Load(); left != -1 {
		t.Fatalf("merger made %d context checks over the shard, want 2", 1-left)
	}
}
