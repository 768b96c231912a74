package core_test

import (
	"context"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/freeq"
	"repro/internal/ontology"
	"repro/internal/prob"
	"repro/internal/query"
)

// referenceScorer is a FreeQ session's scorer that checks every space
// the session materialises against the reference. FreeQ hands the
// product of its keywords' surviving candidates, each keyword's in key
// order; a candidate that yields no interpretation in any tuple shows
// in no binding, and its tuples add nothing to either side, so the
// product of the candidates the space binds is the reference's input.
type referenceScorer struct {
	*prob.Model
	t        *testing.T
	what     string
	keywords []string
	compared int
}

func (r *referenceScorer) RankContext(ctx context.Context, space []*query.Interpretation) ([]prob.Scored, error) {
	got, err := r.Model.RankContext(ctx, space)
	if err != nil {
		return nil, err
	}
	want, err := core.MaterializeReference(ctx, r.Model, r.keywords, boundProduct(len(r.keywords), space))
	if err != nil {
		return nil, err
	}
	r.compared += core.SameScored(r.t, r.what, got, want)
	return got, nil
}

// boundProduct lists every combination of the candidates the space
// binds, one per bound position, each position's in key order.
func boundProduct(positions int, space []*query.Interpretation) [][]query.KeywordInterpretation {
	if len(space) == 0 {
		return nil
	}
	bound := make([]map[string]query.KeywordInterpretation, positions)
	for _, q := range space {
		for _, b := range q.Bindings {
			if bound[b.KI.Pos] == nil {
				bound[b.KI.Pos] = map[string]query.KeywordInterpretation{}
			}
			bound[b.KI.Pos][b.KI.Key()] = *b.KI
		}
	}
	tuples := [][]query.KeywordInterpretation{nil}
	for _, kis := range bound {
		if kis == nil {
			continue
		}
		var next [][]query.KeywordInterpretation
		for _, t := range tuples {
			for _, key := range slices.Sorted(maps.Keys(kis)) {
				next = append(next, append(slices.Clip(t), kis[key]))
			}
		}
		tuples = next
	}
	return tuples
}

// demoOntology maps every table of the dataset to its own class, the
// classes split between two groups under the root, so FreeQ asks class
// options at two levels before attribute options.
func demoOntology(t *testing.T, d *core.DemoDataset) *ontology.Ontology {
	o := ontology.New("entity")
	var groups [2]int
	for i := range groups {
		id, err := o.AddClass([]string{"group_a", "group_b"}[i], o.Root())
		if err != nil {
			t.Fatal(err)
		}
		groups[i] = id
	}
	for i, tb := range d.DB.Tables() {
		id, err := o.AddClass(tb.Schema.Name, groups[i%2])
		if err != nil {
			t.Fatal(err)
		}
		o.MapTable(id, tb.Schema.Name)
	}
	return o
}

// TestFreeQMaterializesAsReference drives FreeQ sessions over the
// differential's queries, materialising at a space of 1 and of 8
// tuples, once rejecting every option and once accepting exactly the
// options that cover the last interpretation generation emits. Every
// space a session materialises must rank as the reference ranks it.
func TestFreeQMaterializesAsReference(t *testing.T) {
	ctx := context.Background()
	ontos := map[*core.DemoDataset]*ontology.Ontology{}
	var sessions, compared int
	core.ForEachDemoQuery(t, func(t *testing.T, d *core.DemoDataset, model *prob.Model, c *query.Candidates) {
		onto := ontos[d]
		if onto == nil {
			onto = demoOntology(t, d)
			ontos[d] = onto
		}
		space, err := query.GenerateCompleteContext(ctx, c, d.Cat, query.GenerateConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if len(space) == 0 {
			return
		}
		intended := space[len(space)-1]
		scorer := &referenceScorer{Model: model, t: t, what: strings.Join(c.Keywords, " "), keywords: c.Keywords}
		for _, at := range []int{1, 8} {
			for _, accept := range []func(freeq.Option) bool{
				func(freeq.Option) bool { return false },
				func(o freeq.Option) bool { return o.SubsumesInterpretation(intended) },
			} {
				s, err := freeq.NewSessionContext(ctx, scorer, c, onto, freeq.Config{StopAtRemaining: 1, MaterializeAt: at})
				if err != nil {
					t.Fatal(err)
				}
				sessions++
				for !s.Done() {
					o, ok := s.NextOption()
					if !ok {
						break
					}
					if accept(o) {
						err = s.AcceptContext(ctx, o)
					} else {
						err = s.RejectContext(ctx, o)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		compared += scorer.compared
	})
	if compared == 0 {
		t.Fatal("no interpretation compared")
	}
	t.Logf("%d sessions, %d interpretations compared", sessions, compared)
}
