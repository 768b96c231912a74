// Package loadgen is the load-generation subsystem: it stands up
// million-row datagen datasets behind the real HTTP serving path and
// drives them with a mixed workload — search, diversification, row
// retrieval, sessionized construction, and live mutations — in either
// closed-loop (fixed worker count, each waits for its response) or
// open-loop (fixed arrival rate, latency measured from the scheduled
// arrival so coordinated omission cannot hide server stalls) mode.
// Per-worker HDR-style latency histograms (repro/internal/metrics) are
// merged into p50/p95/p99 summaries per request kind, and a saturation
// search ramps closed-loop concurrency until goodput stops improving.
//
// The package exists to answer the question the paper's user studies
// never had to ask: what does probability-ranked keyword search cost to
// *serve*, at data scales where a single Zipf-common surname pair fans
// out into seconds of join work — and does the admission gate
// (repro/httpapi) actually hold the tail when it does.
package loadgen

import (
	"fmt"

	keysearch "repro"
	"repro/internal/datagen"
	"repro/internal/relstore"
)

// DatasetKind selects which datagen schema the dataset is built on.
type DatasetKind string

const (
	// KindMovies is the IMDB-style 7-table schema (join paths ≤ 4).
	KindMovies DatasetKind = "movies"
	// KindMusic is the Lyrics-style 5-table chain schema (join paths 5).
	KindMusic DatasetKind = "music"
)

// DatasetConfig sizes a generated dataset. TargetRows is the total row
// count to aim for across all tables; the builder scales the schema's
// entity counts to land close to it (within a few percent — the exact
// count is reported back). The same (Kind, TargetRows, Seed) triple
// always produces byte-identical data.
type DatasetConfig struct {
	Kind       DatasetKind
	TargetRows int
	Seed       int64
}

// Rows-per-entity ratios of the two schemas with their default fan-out:
// an IMDB movie contributes itself, ~3 cast rows, a directs row and a
// produced_by row, plus its share of the actor/director/company
// entities; a Lyrics artist contributes itself, 2 albums + links and 10
// songs + links.
const (
	rowsPerMovie  = 7
	rowsPerArtist = 25
)

// BuildDataset generates the relational database for cfg.
func BuildDataset(cfg DatasetConfig) (*relstore.Database, error) {
	if cfg.TargetRows <= 0 {
		cfg.TargetRows = 10000
	}
	switch cfg.Kind {
	case KindMusic:
		return datagen.Lyrics(datagen.LyricsConfig{
			Artists: max(1, cfg.TargetRows/rowsPerArtist),
			Seed:    cfg.Seed,
		})
	case KindMovies, "":
		movies := max(1, cfg.TargetRows/rowsPerMovie)
		return datagen.IMDB(datagen.IMDBConfig{
			Movies:    movies,
			Actors:    max(1, movies*3/4),
			Directors: max(1, movies/5),
			Companies: max(1, movies/10),
			Seed:      cfg.Seed,
		})
	default:
		return nil, fmt.Errorf("loadgen: unknown dataset kind %q", cfg.Kind)
	}
}

// BuildEngine generates the dataset for cfg and builds a ready engine
// over it (see NewEngine).
func BuildEngine(cfg DatasetConfig, extra ...keysearch.Option) (*keysearch.Engine, error) {
	db, err := BuildDataset(cfg)
	if err != nil {
		return nil, err
	}
	return NewEngine(db, cfg.Kind, extra...)
}

// NewEngine builds a ready mutable engine over an already generated
// dataset of the given kind, with the schema's default options plus
// extra. The engine accepts /v1/mutate batches (the workload mixes
// mutations in), and its indexes are fully built before this returns,
// so serving latency never includes build work. Apply is copy-on-write,
// so several engines may be built over one db.
func NewEngine(db *relstore.Database, kind DatasetKind, extra ...keysearch.Option) (*keysearch.Engine, error) {
	maxPath := 4
	if kind == KindMusic {
		maxPath = 5 // the chain schema needs the full five-table join
	}
	opts := append([]keysearch.Option{
		keysearch.WithMaxJoinPath(maxPath),
		keysearch.WithCoOccurrence(),
		keysearch.WithMutations(),
	}, extra...)
	return keysearch.NewFromDatabase(db, opts...)
}
