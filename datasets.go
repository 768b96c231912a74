package keysearch

import (
	"io"

	"repro/internal/datagen"
	"repro/internal/relstore"
)

// DemoMovies returns a ready-built Engine over the bundled synthetic
// movie database (the IMDB-style dataset of the reproduction's
// experiments): 7 tables — actor, director, movie, company, acts,
// directs, produced_by. Deterministic for a given seed.
func DemoMovies(seed int64) (*Engine, error) {
	return DemoMoviesWith(seed)
}

// DemoMoviesWith is DemoMovies with extra engine options appended to the
// dataset's defaults (join-path length 4, co-occurrence relevance).
func DemoMoviesWith(seed int64, opts ...Option) (*Engine, error) {
	db, err := datagen.IMDB(datagen.IMDBConfig{Seed: seed})
	if err != nil {
		return nil, err
	}
	eng := fromDatabase(db, append([]Option{WithMaxJoinPath(4), WithCoOccurrence()}, opts...)...)
	if err := eng.Build(); err != nil {
		return nil, err
	}
	return eng, nil
}

// DemoMusic returns a ready-built Engine over the bundled synthetic
// lyrics database (5 tables with the artist ⋈ artist_album ⋈ album ⋈
// album_song ⋈ song chain schema).
func DemoMusic(seed int64) (*Engine, error) {
	return DemoMusicWith(seed)
}

// DemoMusicWith is DemoMusic with extra engine options appended to the
// dataset's defaults (join-path length 5 for the chain schema,
// co-occurrence relevance).
func DemoMusicWith(seed int64, opts ...Option) (*Engine, error) {
	db, err := datagen.Lyrics(datagen.LyricsConfig{Seed: seed})
	if err != nil {
		return nil, err
	}
	eng := fromDatabase(db, append([]Option{WithMaxJoinPath(5), WithCoOccurrence()}, opts...)...)
	if err := eng.Build(); err != nil {
		return nil, err
	}
	return eng, nil
}

// NewFromDatabase builds a ready Engine over an arbitrary relational
// database — the constructor the load-generation harness uses to stand
// up engines over million-row datagen datasets without a serialise/
// deserialise round trip. Options are applied as given (no dataset
// defaults are injected; pass WithMaxJoinPath etc. explicitly).
func NewFromDatabase(db *relstore.Database, opts ...Option) (*Engine, error) {
	eng := fromDatabase(db, opts...)
	if err := eng.Build(); err != nil {
		return nil, err
	}
	return eng, nil
}

// SampleQueries returns ambiguous keyword queries that work well against
// the demo datasets, for use in examples and quickstarts. The returned
// queries are tokens that genuinely occur in the demo data.
func (e *Engine) SampleQueries(n int) []string {
	s := e.current()
	if s == nil {
		return nil
	}
	// Tokens occurring in more than one attribute are ambiguous.
	var out []string
	seen := map[string]bool{}
	for _, attr := range s.ix.Attributes() {
		t := s.db.Table(attr.Table)
		ci := t.Schema.ColumnIndex(attr.Column)
		for _, row := range t.Rows() {
			for _, tok := range parse(row.Values[ci]) {
				if seen[tok] || len(tok) < 4 {
					continue
				}
				if len(s.ix.Lookup(tok)) > 1 {
					seen[tok] = true
					out = append(out, tok)
					if len(out) >= n {
						return out
					}
				}
			}
		}
	}
	return out
}

// SaveTo serialises the engine's database (schema and live rows of the
// current snapshot) to the writer; indexes are rebuilt on load. Use Load
// to restore. For a full-state round trip that skips the rebuild and
// preserves physical row identity (tombstones, RowIDs, posting lists),
// use SaveSnapshot / OpenSnapshot instead.
func (e *Engine) SaveTo(w io.Writer) error {
	if s := e.current(); s != nil {
		return s.db.Save(w)
	}
	return e.db.Save(w)
}

// Load restores a database written by SaveTo and builds a ready Engine
// over it with the given options.
func Load(r io.Reader, opts ...Option) (*Engine, error) {
	db, err := relstore.Load(r)
	if err != nil {
		return nil, err
	}
	eng := fromDatabase(db, opts...)
	if err := eng.Build(); err != nil {
		return nil, err
	}
	return eng, nil
}
