package keysearch

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the golden files from the pipeline's output:
//
//	go test -run TestGolden . -update
//
// CI runs without -update, so any drift in ranked interpretations or
// top-k results fails the build until the change is reviewed and the
// files regenerated.
var update = flag.Bool("update", false, "rewrite testdata/golden files from the pipeline's output")

// goldenQuery is the recorded outcome of one keyword query: the ranked
// interpretation response and the globally ranked top rows.
type goldenQuery struct {
	Query  string          `json:"query"`
	Search *SearchResponse `json:"search"`
	Rows   *RowsResponse   `json:"rows"`
}

// goldenDoc is one golden file: a seed dataset plus its recorded queries.
type goldenDoc struct {
	Dataset string        `json:"dataset"`
	Seed    int64         `json:"seed"`
	Queries []goldenQuery `json:"queries"`
}

// goldenDatasets enumerates the seed datasets covered by golden files.
// Queries are derived deterministically from the dataset itself
// (SampleQueries is seed-stable), combined into multi-keyword queries so
// the space includes joins and cross-attribute ambiguity.
var goldenDatasets = []struct {
	name  string
	seed  int64
	build func(seed int64, opts ...Option) (*Engine, error)
}{
	{name: "movies", seed: 7, build: DemoMoviesWith},
	{name: "music", seed: 7, build: DemoMusicWith},
}

// goldenQueries derives the recorded query set from the engine's data.
func goldenQueries(eng *Engine) []string {
	toks := eng.SampleQueries(4)
	var qs []string
	for _, t := range toks {
		qs = append(qs, t)
	}
	if len(toks) >= 2 {
		qs = append(qs, strings.Join(toks[:2], " "))
	}
	if len(toks) >= 3 {
		qs = append(qs, strings.Join(toks[:3], " "))
	}
	return qs
}

// goldenRun produces the full pipeline output document for one engine.
func goldenRun(t *testing.T, eng *Engine, name string, seed int64) *goldenDoc {
	t.Helper()
	ctx := context.Background()
	doc := &goldenDoc{Dataset: name, Seed: seed}
	for _, q := range goldenQueries(eng) {
		sr, err := eng.Search(ctx, SearchRequest{Query: q, K: 10})
		if err != nil {
			t.Fatalf("Search(%q): %v", q, err)
		}
		rr, err := eng.SearchRows(ctx, RowsRequest{Query: q, K: 8})
		if err != nil {
			t.Fatalf("SearchRows(%q): %v", q, err)
		}
		doc.Queries = append(doc.Queries, goldenQuery{Query: q, Search: sr, Rows: rr})
	}
	return doc
}

func marshalGolden(t *testing.T, doc *goldenDoc) []byte {
	t.Helper()
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestGoldenPipeline locks the ranked-interpretation and top-k output of
// the seed datasets: the pipeline must reproduce the recorded files byte
// for byte. CI runs it at native GOMAXPROCS and at GOMAXPROCS 2; every
// stage is sequential, so the output must not depend on either.
// Regenerate with -update after an intentional ranking change.
func TestGoldenPipeline(t *testing.T) {
	for _, ds := range goldenDatasets {
		ds := ds
		t.Run(ds.name, func(t *testing.T) {
			eng, err := ds.build(ds.seed)
			if err != nil {
				t.Fatal(err)
			}
			got := marshalGolden(t, goldenRun(t, eng, ds.name, ds.seed))
			path := filepath.Join("testdata", "golden", ds.name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden file: %v (regenerate with: go test -run TestGolden . -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("pipeline output drifted from %s\n(regenerate with: go test -run TestGolden . -update)\ngot %d bytes, want %d bytes", path, len(got), len(want))
			}
		})
	}
}
