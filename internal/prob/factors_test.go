package prob

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/invindex"
	"repro/internal/query"
	"repro/internal/schemagraph"
)

// rankReference is RankContext as it was: Model.Score per interpretation,
// the total summed in input order, then the sort.
func rankReference(m *Model, space []*query.Interpretation) []Scored {
	out := make([]Scored, len(space))
	total := 0.0
	for i, q := range space {
		out[i] = Scored{Q: q, Score: m.Score(q)}
		total += out[i].Score
	}
	if total > 0 {
		for i := range out {
			out[i].Prob = out[i].Score / total
		}
	}
	slices.SortFunc(out, func(a, b Scored) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return query.CompareKey(a.Q, b.Q)
	})
	return out
}

// checkRankMatchesScore requires RankContext to return rankReference's
// interpretations in its order with bit-identical scores and
// probabilities.
func checkRankMatchesScore(t *testing.T, m *Model, space []*query.Interpretation) {
	t.Helper()
	got, err := m.RankContext(context.Background(), space)
	if err != nil {
		t.Fatal(err)
	}
	want := rankReference(m, space)
	if len(got) != len(want) {
		t.Fatalf("%d ranked, reference ranks %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Q != want[i].Q ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) ||
			math.Float64bits(got[i].Prob) != math.Float64bits(want[i].Prob) {
			t.Fatalf("rank %d: %s score %v prob %v; reference %s score %v prob %v",
				i, got[i].Q.Key(), got[i].Score, got[i].Prob, want[i].Q.Key(), want[i].Score, want[i].Prob)
		}
	}
}

// rankEnv is the demo movie data with a template log over its catalogue.
type rankEnv struct {
	ix  *invindex.Index
	cat *query.Catalog
}

func newRankEnv(t *testing.T) *rankEnv {
	t.Helper()
	db, err := datagen.IMDB(datagen.IMDBConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	db.Prepare()
	cat := query.BuildCatalog(schemagraph.FromDatabase(db), schemagraph.EnumerateOptions{MaxNodes: 4})
	for i := range cat.Templates {
		if i%3 == 0 {
			cat.RecordUsage(i, 1+i%7)
		}
	}
	return &rankEnv{ix: invindex.Build(db), cat: cat}
}

// spaces returns the interpretation spaces the test ranks over ix: each
// query's complete space with schema terms and aggregates; each space
// reversed, so templates come in no run order; two generations of one
// query together, whose bindings point into different candidate lists;
// and hand-built interpretations with several keywords in one group,
// a keyword position past 63 and unbound keywords.
func (e *rankEnv) spaces(t *testing.T, ix *invindex.Index) [][]*query.Interpretation {
	t.Helper()
	ctx := context.Background()
	gen := func(kws ...string) []*query.Interpretation {
		c, err := query.GenerateCandidatesContext(ctx, ix, kws, query.GenerateOptionsConfig{IncludeSchemaTerms: true, IncludeAggregates: true})
		if err != nil {
			t.Fatal(err)
		}
		space, err := query.GenerateCompleteContext(ctx, c, e.cat, query.GenerateConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return space
	}
	var out [][]*query.Interpretation
	for _, kws := range [][]string{{"hanks"}, {"tom", "hanks"}, {"number", "hanks", "movie"}, {"london", "actor"}, {"tom", "hanks", "terminal"}} {
		space := gen(kws...)
		if len(space) == 0 {
			t.Fatalf("%q has no interpretation", kws)
		}
		rev := slices.Clone(space)
		slices.Reverse(rev)
		out = append(out, space, rev)
	}
	out = append(out, append(gen("tom", "hanks"), gen("tom", "hanks")...))

	name := invindex.AttrRef{Table: "actor", Column: "name"}
	value := func(pos int, kw string) *query.KeywordInterpretation {
		return &query.KeywordInterpretation{Pos: pos, Keyword: kw, Kind: query.KindValue, Attr: name}
	}
	var tpl *query.Template
	for _, c := range e.cat.Templates {
		if c.Size() == 1 && len(c.Occurrences("actor")) == 1 {
			tpl = c
		}
	}
	kws := make([]string, 70)
	for i := range kws {
		kws[i] = "tom"
	}
	kws[1], kws[66] = "hanks", "hanks"
	tom := value(0, "tom")
	out = append(out, []*query.Interpretation{
		query.NewInterpretation(kws[:3], tpl, []query.Binding{{KI: tom, Occ: 0}, {KI: value(1, "hanks"), Occ: 0}, {KI: value(2, "tom"), Occ: 0}}),
		query.NewInterpretation(kws[:3], tpl, []query.Binding{{KI: tom, Occ: 0}, {KI: value(1, "hanks"), Occ: 0}}),
		query.NewInterpretation(kws[:3], tpl, []query.Binding{{KI: tom, Occ: 0}}),
		query.NewInterpretation(kws, tpl, []query.Binding{{KI: tom, Occ: 0}, {KI: value(66, "hanks"), Occ: 0}}),
		query.NewInterpretation(kws[:2], nil, []query.Binding{{KI: tom, Occ: 0}}),
	})
	return out
}

// TestRankMatchesScore: RankContext, which reads each factor once per
// call, ranks every space exactly as Model.Score and the sort do, with
// co-occurrence and the template log each on and off, and with the
// score cache on and off.
func TestRankMatchesScore(t *testing.T) {
	e := newRankEnv(t)
	for _, co := range []bool{false, true} {
		for _, log := range []bool{false, true} {
			for _, disable := range []bool{false, true} {
				cfg := Config{UseCoOccurrence: co, UseTemplateLog: log, DisableScoreCache: disable}
				t.Run(fmt.Sprintf("co=%t/log=%t/nocache=%t", co, log, disable), func(t *testing.T) {
					m := New(e.ix, e.cat, cfg)
					spaces := e.spaces(t, e.ix)
					for range 2 { // cold, then warm
						for _, space := range spaces {
							checkRankMatchesScore(t, m, space)
						}
					}
				})
			}
		}
	}
}
