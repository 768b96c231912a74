package keysearch

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/divq"
	"repro/internal/invindex"
	"repro/internal/query"
)

// similarityByKey is divq.Similarity as first written: the Jaccard
// coefficient over the rendered KeywordInterpretation.Key strings of the
// two binding lists, collected into maps. It is the reference of the
// by-value comparison.
func similarityByKey(a, b *query.Interpretation) float64 {
	setA := make(map[string]bool, len(a.Bindings))
	for _, bd := range a.Bindings {
		setA[bd.KI.Key()] = true
	}
	if len(setA) == 0 && len(b.Bindings) == 0 {
		return 1
	}
	inter, union := 0, len(setA)
	seenB := make(map[string]bool, len(b.Bindings))
	for _, bd := range b.Bindings {
		k := bd.KI.Key()
		if seenB[k] {
			continue
		}
		seenB[k] = true
		if setA[k] {
			inter++
		} else {
			union++
		}
	}
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// TestSimilarityMatchesKeyReference requires divq.Similarity to be
// bit-identical to the Key-string reference over every pair of ranked
// interpretations of the golden queries, and over random binding lists
// that bind keyword interpretations of every kind, repeat one at two
// occurrences, and are sometimes empty.
func TestSimilarityMatchesKeyReference(t *testing.T) {
	check := func(a, b *query.Interpretation) {
		t.Helper()
		got, want := divq.Similarity(a, b), similarityByKey(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Similarity(%s, %s) = %v, reference %v", a.Key(), b.Key(), got, want)
		}
	}
	pairs := 0
	for _, ds := range goldenDatasets {
		eng, err := ds.build(ds.seed)
		if err != nil {
			t.Fatal(err)
		}
		s := eng.current()
		for _, q := range goldenQueries(eng) {
			ranked, err := eng.interpret(context.Background(), s, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range ranked {
				for _, b := range ranked {
					check(a.Q, b.Q)
					pairs++
				}
			}
		}
	}
	if pairs < 1000 {
		t.Fatalf("only %d golden pairs compared", pairs)
	}

	var pool []query.KeywordInterpretation
	for pos, kw := range []string{"hanks", "tom", "hanks"} {
		pool = append(pool,
			query.KeywordInterpretation{Pos: pos, Keyword: kw, Kind: query.KindValue, Attr: invindex.AttrRef{Table: "actor", Column: "name"}},
			query.KeywordInterpretation{Pos: pos, Keyword: kw, Kind: query.KindValue, Attr: invindex.AttrRef{Table: "movie", Column: "title"}},
			query.KeywordInterpretation{Pos: pos, Keyword: kw, Kind: query.KindColumn, Attr: invindex.AttrRef{Table: "actor", Column: "name"}},
			query.KeywordInterpretation{Pos: pos, Keyword: kw, Kind: query.KindTable, Table: "actor"},
			query.KeywordInterpretation{Pos: pos, Keyword: kw, Kind: query.KindAggregate, Agg: "count"},
		)
	}
	rng := rand.New(rand.NewSource(1))
	random := func() *query.Interpretation {
		bindings := make([]query.Binding, rng.Intn(6))
		for i := range bindings {
			bindings[i] = query.Binding{KI: &pool[rng.Intn(len(pool))], Occ: rng.Intn(3)}
		}
		return query.NewInterpretation([]string{"hanks", "tom", "hanks"}, nil, bindings)
	}
	twice := query.NewInterpretation([]string{"hanks"}, nil, []query.Binding{{KI: &pool[0], Occ: 0}, {KI: &pool[0], Occ: 1}})
	once := query.NewInterpretation([]string{"hanks"}, nil, []query.Binding{{KI: &pool[0], Occ: 0}})
	check(twice, once)
	check(once, twice)
	check(twice, twice)
	for i := 0; i < 20000; i++ {
		a, b := random(), random()
		check(a, b)
		check(a, twice)
		check(twice, b)
	}
}
