package prob

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/invindex"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/schemagraph"
)

// goldenSpace is one demo dataset of the golden files: its index, its
// catalogue at the dataset's join path, and the queries it answers.
type goldenSpace struct {
	name    string
	ix      *invindex.Index
	cat     *query.Catalog
	queries [][]string
	vocab   []string
}

var goldenOnce struct {
	sync.Once
	spaces []*goldenSpace
	err    error
}

// goldenSpaces builds the demo movies (join path 4) and music (join path
// 5) datasets at seed 7, each with the golden files' queries (the first
// four sample tokens alone, then the first two and three together) and a
// few multi-keyword queries of its own.
func goldenSpaces(t testing.TB) []*goldenSpace {
	t.Helper()
	goldenOnce.Do(func() {
		movies, err := datagen.IMDB(datagen.IMDBConfig{Seed: 7})
		if err != nil {
			goldenOnce.err = err
			return
		}
		music, err := datagen.Lyrics(datagen.LyricsConfig{Seed: 7})
		if err != nil {
			goldenOnce.err = err
			return
		}
		goldenOnce.spaces = []*goldenSpace{
			newGoldenSpace("movies", movies, 4, []string{"tom", "hanks"}, []string{"number", "hanks", "movie"}, []string{"london", "actor", "title"}),
			newGoldenSpace("music", music, 5, []string{"love", "song"}, []string{"number", "album", "love"}),
		}
	})
	if goldenOnce.err != nil {
		t.Fatal(goldenOnce.err)
	}
	return goldenOnce.spaces
}

func newGoldenSpace(name string, db *relstore.Database, joinPath int, extra ...[]string) *goldenSpace {
	db.Prepare()
	g := &goldenSpace{
		name: name,
		ix:   invindex.Build(db),
		cat:  query.BuildCatalog(schemagraph.FromDatabase(db), schemagraph.EnumerateOptions{MaxNodes: joinPath}),
	}
	toks := sampleTokens(db, g.ix, 4)
	for _, tok := range toks {
		g.queries = append(g.queries, []string{tok})
	}
	g.queries = append(g.queries, toks[:2], toks[:3])
	g.queries = append(g.queries, extra...)
	g.vocab = g.ix.TermsWithPrefix("", 0)
	g.vocab = append(g.vocab, "number", "count")
	for _, attr := range g.ix.Attributes() {
		g.vocab = append(g.vocab, attr.Table, attr.Column)
	}
	return g
}

// sampleTokens picks the first n tokens of at least 4 letters indexed in
// more than one attribute, in attribute and row order: the rule of the
// engine's SampleQueries, which picks the golden files' queries.
func sampleTokens(db *relstore.Database, ix *invindex.Index, n int) []string {
	var out []string
	seen := map[string]bool{}
	for _, attr := range ix.Attributes() {
		tb := db.Table(attr.Table)
		ci := tb.Schema.ColumnIndex(attr.Column)
		for _, row := range tb.Rows() {
			for _, tok := range relstore.Tokenize(row.Values[ci]) {
				if seen[tok] || len(tok) < 4 || len(ix.Lookup(tok)) < 2 {
					continue
				}
				seen[tok] = true
				out = append(out, tok)
				if len(out) == n {
					return out
				}
			}
		}
	}
	return out
}

// rankTop streams c's space over cat into a TopK of k, skipping the
// interpretations that break segments, as the engine's Search does.
func rankTop(t testing.TB, m *Model, c *query.Candidates, cat *query.Catalog, segments [][]int, k int) ([]Scored, int) {
	t.Helper()
	top := m.NewTopK(k)
	defer top.Release()
	err := query.StreamCompleteContext(context.Background(), c, cat, query.GenerateConfig{}, func(q *query.Interpretation) bool {
		if query.SegmentsRespected(q, segments) {
			top.Add(q)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return top.Ranked()
}

// checkRankTop requires the streamed top k of c's space to equal
// RankContext's ranking of the materialised, filtered space cut to k:
// the same interpretations in the same order, bit-identical scores and
// probabilities, and the whole space's size. It returns that size.
func checkRankTop(t testing.TB, m *Model, c *query.Candidates, cat *query.Catalog, segments [][]int, k int) int {
	t.Helper()
	ctx := context.Background()
	space, err := query.GenerateCompleteContext(ctx, c, cat, query.GenerateConfig{})
	if err != nil {
		t.Fatal(err)
	}
	space = query.FilterSegments(space, segments)
	want, err := m.RankContext(ctx, space)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) > k {
		want = want[:k]
	}
	got, n := rankTop(t, m, c, cat, segments, k)
	if n != len(space) {
		t.Fatalf("%q k=%d: space size %d, RankContext ranks %d", c.Keywords, k, n, len(space))
	}
	if len(got) != len(want) {
		t.Fatalf("%q k=%d: %d kept, RankContext's top has %d", c.Keywords, k, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Q.Key() != w.Q.Key() || g.Q.Template != w.Q.Template || !reflect.DeepEqual(g.Q.Bindings, w.Q.Bindings) ||
			!slices.Equal(g.Q.Keywords, w.Q.Keywords) ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
			math.Float64bits(g.Prob) != math.Float64bits(w.Prob) {
			t.Fatalf("%q k=%d rank %d: %s score %v prob %v; RankContext has %s score %v prob %v",
				c.Keywords, k, i, g.Q.Key(), g.Score, g.Prob, w.Q.Key(), w.Score, w.Prob)
		}
	}
	return n
}

// checkEveryK runs checkRankTop at K = 1, 5, 10 and 25, the space size
// and one more, and at 0, where nothing is kept but the space is counted.
func checkEveryK(t testing.TB, m *Model, c *query.Candidates, cat *query.Catalog, segments [][]int) {
	t.Helper()
	n := checkRankTop(t, m, c, cat, segments, 1)
	for _, k := range []int{5, 10, 25, max(n, 1), n + 1, 0} {
		checkRankTop(t, m, c, cat, segments, k)
	}
}

// adjacentSegments pairs every keyword position with the next one.
func adjacentSegments(n int) [][]int {
	var out [][]int
	for i := 0; i+1 < n; i++ {
		out = append(out, []int{i, i + 1})
	}
	return out
}

// TestRankTopMatchesRankContext: over the golden spaces of the demo
// movies and music datasets, with schema terms, aggregates, segments and
// co-occurrence each on and off, the streamed top K equals RankContext's
// ranking cut to K at every K from 1 to past the space size; and so it
// does on two hand cases, one where every score ties and one where the
// candidates' key renderings nest, so keys decide.
func TestRankTopMatchesRankContext(t *testing.T) {
	ctx := context.Background()
	for _, g := range goldenSpaces(t) {
		for flags := range 16 {
			schema, aggs, segs, co := flags&1 != 0, flags&2 != 0, flags&4 != 0, flags&8 != 0
			t.Run(fmt.Sprintf("%s/schema=%t/aggs=%t/segments=%t/co=%t", g.name, schema, aggs, segs, co), func(t *testing.T) {
				m := New(g.ix, g.cat, Config{UseCoOccurrence: co})
				for _, kws := range g.queries {
					c, err := query.GenerateCandidatesContext(ctx, g.ix, kws, query.GenerateOptionsConfig{IncludeSchemaTerms: schema, IncludeAggregates: aggs})
					if err != nil {
						t.Fatal(err)
					}
					var segments [][]int
					if segs {
						segments = adjacentSegments(len(kws))
					}
					checkEveryK(t, m, c, g.cat, segments)
				}
			})
		}
	}

	movies := goldenSpaces(t)[0]
	t.Run("ties", func(t *testing.T) {
		// Column readings all score schemaTermProb under a uniform prior,
		// so every interpretation ties and the order is the key order
		// alone: across templates, candidates and occurrences.
		c := &query.Candidates{Keywords: []string{"a", "b"}, PerKeyword: make([][]query.KeywordInterpretation, 2)}
		for pos := range c.PerKeyword {
			for _, attr := range movies.ix.Attributes() {
				c.PerKeyword[pos] = append(c.PerKeyword[pos], query.KeywordInterpretation{
					Pos: pos, Keyword: c.Keywords[pos], Kind: query.KindColumn, Attr: attr,
				})
			}
		}
		m := New(movies.ix, movies.cat, Config{})
		ranked, n := rankTop(t, m, c, movies.cat, nil, 1<<20)
		if n < 50 || ranked[0].Score != ranked[n-1].Score {
			t.Fatalf("%d interpretations scoring %v to %v, want at least 50 ties", n, ranked[0].Score, ranked[n-1].Score)
		}
		checkEveryK(t, m, c, movies.cat, nil)
	})
	t.Run("nested renderings", func(t *testing.T) {
		// Column readings of "c", "c@1" and "c@0" render nested key
		// segments, so generation cannot order keys by ranks and
		// CompareKey compares the keys themselves; they all score
		// schemaTermProb, so only keys decide.
		var single *query.Template
		for _, tpl := range movies.cat.Templates {
			if tpl.Size() == 1 && tpl.Tree.Tables[0] == "movie" {
				single = tpl
			}
		}
		c := &query.Candidates{Keywords: []string{"a", "b"}, PerKeyword: make([][]query.KeywordInterpretation, 2)}
		for pos, cols := range [][]string{{"c", "c@1", "c@0"}, {"d1", "d", "d@"}} {
			for _, col := range cols {
				c.PerKeyword[pos] = append(c.PerKeyword[pos], query.KeywordInterpretation{
					Pos: pos, Keyword: c.Keywords[pos], Kind: query.KindColumn, Attr: invindex.AttrRef{Table: "movie", Column: col},
				})
			}
		}
		cat := &query.Catalog{Templates: []*query.Template{single}}
		checkEveryK(t, New(movies.ix, cat, Config{}), c, cat, nil)
	})
}

// FuzzRankTop draws one to four keywords from the demo movies
// vocabulary (every indexed term, the aggregate words, and the table
// and column names) and requires the streamed top K to equal
// RankContext's ranking cut to K, as TestRankTopMatchesRankContext does.
// flags selects the keyword count (bits 0–1), schema terms (bit 2),
// aggregates (bit 3), adjacent segments (bit 4) and co-occurrence (bit
// 5); K is 1 + k.
func FuzzRankTop(f *testing.F) {
	f.Add(uint16(0), uint16(1), uint16(2), uint16(3), uint8(1), uint8(0))
	f.Add(uint16(17), uint16(4242), uint16(99), uint16(5), uint8(0x22), uint8(4))
	f.Add(uint16(3), uint16(500), uint16(7), uint16(11), uint8(0x0e), uint8(9))
	f.Add(uint16(1), uint16(65535), uint16(12), uint16(40000), uint8(0x3f), uint8(24))
	f.Add(uint16(9), uint16(300), uint16(2024), uint16(77), uint8(0x1f), uint8(255))
	f.Fuzz(func(t *testing.T, a, b, c, e uint16, flags, k uint8) {
		g := goldenSpaces(t)[0]
		keywords := []string{g.vocab[int(a)%len(g.vocab)], g.vocab[int(b)%len(g.vocab)], g.vocab[int(c)%len(g.vocab)], g.vocab[int(e)%len(g.vocab)]}
		keywords = keywords[:1+int(flags&3)]
		cands, err := query.GenerateCandidatesContext(context.Background(), g.ix, keywords, query.GenerateOptionsConfig{
			IncludeSchemaTerms: flags&4 != 0, IncludeAggregates: flags&8 != 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		var segments [][]int
		if flags&16 != 0 {
			segments = adjacentSegments(len(keywords))
		}
		m := New(g.ix, g.cat, Config{UseCoOccurrence: flags&32 != 0})
		checkRankTop(t, m, cands, g.cat, segments, 1+int(k))
	})
}
