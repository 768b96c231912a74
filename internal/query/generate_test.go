package query

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/invindex"
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
