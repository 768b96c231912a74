package expt

import (
	"context"

	"repro/internal/datagen"
	"repro/internal/invindex"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/schemagraph"
)

// Env bundles a database with its search infrastructure: inverted index,
// schema graph and template catalogue.
type Env struct {
	Name  string
	DB    *relstore.Database
	IX    *invindex.Index
	Graph *schemagraph.Graph
	Cat   *query.Catalog
}

// newEnv indexes a database and builds its catalogue.
func newEnv(name string, db *relstore.Database, maxJoinPath int) *Env {
	ix := invindex.Build(db)
	g := schemagraph.FromDatabase(db)
	cat := query.BuildCatalog(g, schemagraph.EnumerateOptions{MaxNodes: maxJoinPath})
	return &Env{Name: name, DB: db, IX: ix, Graph: g, Cat: cat}
}

// Scale selects dataset sizes for the harness: benchmarks use Small to
// stay fast; cmd/experiments uses Full for the headline numbers.
type Scale int

const (
	// Small is a fast configuration for tests and benchmarks.
	Small Scale = iota
	// Full is the configuration for the headline experiment runs.
	Full
)

// NewMovieEnv builds the IMDB-style environment (Section 3.8.1 uses a
// 7-table IMDB crawl; join-path length 4 gives 74 templates there — the
// template count here depends on the synthetic schema).
func NewMovieEnv(scale Scale, seed int64) (*Env, error) {
	cfg := datagen.IMDBConfig{Seed: seed}
	if scale == Full {
		cfg.Movies, cfg.Actors, cfg.Directors, cfg.Companies = 2000, 1200, 300, 120
	} else {
		cfg.Movies, cfg.Actors, cfg.Directors, cfg.Companies = 250, 150, 40, 20
	}
	db, err := datagen.IMDB(cfg)
	if err != nil {
		return nil, err
	}
	return newEnv("imdb", db, 4), nil
}

// NewMusicEnv builds the Lyrics-style environment (5 tables, chain
// schema). The join-path bound must admit the 5-table chain.
func NewMusicEnv(scale Scale, seed int64) (*Env, error) {
	cfg := datagen.LyricsConfig{Seed: seed}
	if scale == Full {
		cfg.Artists = 500
	} else {
		cfg.Artists = 80
	}
	db, err := datagen.Lyrics(cfg)
	if err != nil {
		return nil, err
	}
	return newEnv("lyrics", db, 5), nil
}

// Model builds the probabilistic model over the environment.
func (e *Env) Model(cfg prob.Config) *prob.Model {
	return prob.New(e.IX, e.Cat, cfg)
}

// Candidates generates keyword candidates against the environment.
// Experiments run uncancelled, and a context error is the only error
// generation returns, so it is dropped here and in Space.
func (e *Env) Candidates(keywords []string) *query.Candidates {
	c, _ := query.GenerateCandidatesContext(context.Background(), e.IX, keywords, query.GenerateOptionsConfig{})
	return c
}

// Space materialises the complete interpretation space of a query.
func (e *Env) Space(c *query.Candidates, cap int) []*query.Interpretation {
	space, _ := query.GenerateCompleteContext(context.Background(), c, e.Cat, query.GenerateConfig{MaxInterpretations: cap})
	return space
}

// ResolveIntent finds the complete interpretation matching the intent's
// ground-truth attribute assignment (smallest template first). ok=false
// when the intent is not expressible in the environment's template
// catalogue.
func (e *Env) ResolveIntent(in datagen.Intent, space []*query.Interpretation) (*query.Interpretation, bool) {
	for _, q := range space {
		if len(q.Bindings) != len(in.Keywords) {
			continue
		}
		ok := true
		for _, b := range q.Bindings {
			if b.KI.Kind != query.KindValue {
				ok = false
				break
			}
			if b.KI.Attr.String() != in.Attrs[b.KI.Pos] {
				ok = false
				break
			}
		}
		if ok {
			return q, true
		}
	}
	return nil, false
}

// IntentRelevance builds the simulated graded relevance assessment of the
// DivQ evaluation (Section 4.6.2): the intended interpretation scores 1;
// other interpretations earn the fraction of their keywords bound to the
// intended attributes (partial credit), so near-misses are graded rather
// than binary — the role of the averaged Likert scores in the thesis.
func IntentRelevance(in datagen.Intent) func(*query.Interpretation) float64 {
	return func(q *query.Interpretation) float64 {
		if len(q.Bindings) == 0 {
			return 0
		}
		hit := 0
		for _, b := range q.Bindings {
			if b.KI.Pos < len(in.Attrs) && b.KI.Kind == query.KindValue &&
				b.KI.Attr.String() == in.Attrs[b.KI.Pos] {
				hit++
			}
		}
		return float64(hit) / float64(len(in.Keywords))
	}
}
