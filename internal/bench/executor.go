package bench

import (
	"context"
	"fmt"

	"repro/internal/invindex"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/schemagraph"
)

// execMaxPlans caps the ranked candidate networks executed per simulated
// request, and execPerPlan the JTTs materialised per plan — the
// PerInterpretationLimit a SearchRows request with K=10 uses.
const (
	execMaxPlans = 40
	execPerPlan  = 40
)

// planFixture is the scaled demo database with the index, template
// catalogue and co-occurrence model its queries are ranked with — the
// fixture of the executor leg.
type planFixture struct {
	db    *relstore.Database
	ix    *invindex.Index
	cat   *query.Catalog
	model *prob.Model
}

func newPlanFixture() (*planFixture, error) {
	db, err := demoMovies(microScale)
	if err != nil {
		return nil, err
	}
	db.Prepare()
	ix := invindex.Build(db)
	cat := query.BuildCatalog(schemagraph.FromDatabase(db), schemagraph.EnumerateOptions{MaxNodes: 4})
	return &planFixture{db: db, ix: ix, cat: cat, model: prob.New(ix, cat, prob.Config{UseCoOccurrence: true})}, nil
}

// ranked returns the ranked interpretation space of a keyword query.
func (f *planFixture) ranked(keywords []string) ([]prob.Scored, error) {
	ctx := context.Background()
	cands, err := query.GenerateCandidatesContext(ctx, f.ix, keywords, query.GenerateOptionsConfig{})
	if err != nil {
		return nil, err
	}
	space, err := query.GenerateCompleteContext(ctx, cands, f.cat, query.GenerateConfig{})
	if err != nil {
		return nil, err
	}
	return f.model.RankContext(ctx, space)
}

// executorOps measures plan execution — the storage-engine hot path of
// a top-k request — in isolation from interpretation generation and
// ranking. One operation is what one Engine.SearchRows request makes
// the storage layer do: execute the ranked candidate networks of an
// ambiguous keyword query (dozens of join plans that keep recombining
// the same keyword selections) with a per-plan materialisation limit.
// Rows:
//
//   - scan:           the reference executor (full table scans per
//     predicate, map-based membership) — relstore.ExecuteScan,
//   - postings:       compiled plans over posting-list selections with
//     demand-driven semi-join pruning — relstore.Execute,
//   - postings+cache: the same with one per-request SelectionCache
//     shared across all plans, as the serving path uses it,
//   - count:          Count over every plan, the allocation-free
//     cardinality probe.
func executorOps() (*microSpec, error) {
	f, err := newPlanFixture()
	if err != nil {
		return nil, err
	}
	db := f.db
	keywords := ambiguousKeywords(f.ix, db, 2)
	if len(keywords) < 2 {
		return nil, fmt.Errorf("only %d ambiguous sample keywords", len(keywords))
	}
	ranked, err := f.ranked(keywords)
	if err != nil {
		return nil, err
	}
	if len(ranked) > execMaxPlans {
		ranked = ranked[:execMaxPlans]
	}
	var plans []*relstore.JoinPlan
	for _, sc := range ranked {
		plan, err := sc.Q.JoinPlan()
		if err != nil {
			return nil, err
		}
		plans = append(plans, plan)
	}
	if len(plans) == 0 {
		return nil, fmt.Errorf("no executable plans for %q", keywords)
	}

	// request executes one simulated request under the given mode and
	// returns the total number of results materialised (or counted).
	request := func(mode string) (int, error) {
		var cache *relstore.SelectionCache
		if mode == "postings+cache" || mode == "count" {
			cache = relstore.NewSelectionCache()
		}
		total := 0
		for _, p := range plans {
			var n int
			var err error
			switch mode {
			case "scan":
				var jtts []relstore.JTT
				jtts, err = db.ExecuteScan(p, relstore.ExecuteOptions{Limit: execPerPlan})
				n = len(jtts)
			case "count":
				n, err = db.Count(p, execPerPlan, cache)
			default:
				var jtts []relstore.JTT
				jtts, err = db.Execute(p, relstore.ExecuteOptions{Limit: execPerPlan, Cache: cache})
				n = len(jtts)
			}
			if err != nil {
				return 0, err
			}
			total += n
		}
		return total, nil
	}

	modes := []string{"scan", "postings", "postings+cache", "count"}
	spec := &microSpec{
		dataset: microDataset,
		params: map[string]any{
			"query":          keywords[0] + " " + keywords[1],
			"plans":          len(plans),
			"per_plan_limit": execPerPlan,
		},
		// Every mode must produce the same result total.
		verify: func() error {
			want, err := request(modes[0])
			if err != nil {
				return err
			}
			if want == 0 {
				return fmt.Errorf("workload produced no results")
			}
			for _, m := range modes[1:] {
				if got, err := request(m); err != nil {
					return err
				} else if got != want {
					return fmt.Errorf("mode %s produced %d results, want %d", m, got, want)
				}
			}
			return nil
		},
	}
	for _, m := range modes {
		op := microOp{name: m, run: func() error { _, err := request(m); return err }}
		if m != "scan" {
			op.ratio, op.versus = "speedup_vs_scan", "scan"
		}
		spec.ops = append(spec.ops, op)
	}
	return spec, nil
}

// ambiguousKeywords picks the first n tokens (length >= 4) that occur in
// more than one attribute — the keywords that fan a query out into many
// candidate networks (the same heuristic as Engine.SampleQueries).
func ambiguousKeywords(ix *invindex.Index, db *relstore.Database, n int) []string {
	var out []string
	seen := map[string]bool{}
	for _, attr := range ix.Attributes() {
		t := db.Table(attr.Table)
		ci := t.Schema.ColumnIndex(attr.Column)
		for _, row := range t.Rows() {
			for _, tok := range relstore.Tokenize(row.Values[ci]) {
				if seen[tok] || len(tok) < 4 || len(ix.Lookup(tok)) <= 1 {
					continue
				}
				seen[tok] = true
				if out = append(out, tok); len(out) >= n {
					return out
				}
			}
		}
	}
	return out
}
