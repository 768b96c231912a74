// Analytics: the expressiveness extensions of Section 2.2 on top of the
// basic keyword search — labelled keywords, phrase segmentation,
// aggregation operators, schema terms, and global top-k result retrieval.
//
//	go run ./examples/analytics
package main

import (
	"context"
	"fmt"
	"log"

	keysearch "repro"
)

func main() {
	schema := []keysearch.Table{
		{
			Name:       "actor",
			Columns:    []keysearch.Column{{Name: "id"}, {Name: "name", Text: true}},
			PrimaryKey: "id",
		},
		{
			Name:       "movie",
			Columns:    []keysearch.Column{{Name: "id"}, {Name: "title", Text: true}, {Name: "year", Text: true}},
			PrimaryKey: "id",
		},
		{
			Name:    "acts",
			Columns: []keysearch.Column{{Name: "actor_id"}, {Name: "movie_id"}, {Name: "role", Text: true}},
			ForeignKeys: []keysearch.ForeignKey{
				{Column: "actor_id", RefTable: "actor", RefColumn: "id"},
				{Column: "movie_id", RefTable: "movie", RefColumn: "id"},
			},
		},
	}
	eng, err := keysearch.New(schema,
		keysearch.WithAggregates(),
		keysearch.WithSegmentPhrases(),
		keysearch.WithSchemaTerms(),
	)
	if err != nil {
		log.Fatal(err)
	}
	rows := [][]string{
		{"actor", "a1", "Tom Hanks"},
		{"actor", "a2", "Tom Hanks"}, // a second Tom Hanks
		{"actor", "a3", "Jack London"},
		{"movie", "m1", "The Terminal", "2004"},
		{"movie", "m2", "London Boulevard", "2010"},
		{"movie", "m3", "Tom of the River", "1998"},
		{"acts", "a1", "m1", "Viktor Navorski"},
		{"acts", "a2", "m3", "Tom"},
		{"acts", "a3", "m2", "Mitchel"},
	}
	for _, r := range rows {
		if err := eng.Insert(r[0], r[1:]...); err != nil {
			log.Fatal(err)
		}
	}
	if err := eng.Build(); err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// 1. Labelled keywords (§2.2.7): force the movie-title reading of the
	// ambiguous keyword "london".
	fmt.Println("labelled query \"title:london\":")
	labelled, err := eng.Search(ctx, keysearch.SearchRequest{Query: "title:london", K: 3})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range labelled.Results {
		fmt.Printf("  P=%.3f  %s\n", r.Probability, r.Query)
	}

	// 2. Phrase segmentation (§2.2.1): "tom hanks" always co-occur in
	// actor.name, so readings scattering the two tokens are pruned.
	fmt.Println("\nsegmented query \"tom hanks\":")
	seg, err := eng.Search(ctx, keysearch.SearchRequest{Query: "tom hanks", K: 3})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range seg.Results {
		fmt.Printf("  P=%.3f  %s\n", r.Probability, r.Query)
	}

	// 3. Aggregation (Def 3.5.1 K4): "number hanks" counts results.
	fmt.Println("\nanalytical query \"number hanks\":")
	agg, err := eng.Search(ctx, keysearch.SearchRequest{Query: "number hanks", K: 5})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range agg.Results {
		if r.Aggregate == "" {
			continue
		}
		n, err := r.Count()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s = %d\n", r.Query, n)
	}

	// 4. Schema terms (§2.2.7): "movie" matches the movie table's name as
	// well as values, so "movie terminal" reads as a movie titled
	// "terminal".
	fmt.Println("\nschema-term query \"movie terminal\":")
	schemaTerm, err := eng.Search(ctx, keysearch.SearchRequest{Query: "movie terminal", K: 3})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range schemaTerm.Results {
		fmt.Printf("  P=%.3f  %s\n", r.Probability, r.Query)
	}

	// 5. Global top-k results (§2.2.5): the best concrete rows across all
	// interpretations, with early stopping over the interpretation list.
	fmt.Println("\ntop-3 concrete results for \"hanks\":")
	top, err := eng.SearchRows(ctx, keysearch.RowsRequest{Query: "hanks", K: 3})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range top.Rows {
		fmt.Printf("  score=%.4f  via %s\n", r.Score, r.Query)
		if name, ok := r.Row["actor.name"]; ok {
			fmt.Printf("    actor.name = %s\n", name)
		}
	}
}
