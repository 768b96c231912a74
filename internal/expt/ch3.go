package expt

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/ranking"
)

// UniformScorer is the base line probability estimate of Section 3.8.2:
// all structured queries and query construction options equally likely.
type UniformScorer struct{ Cat *query.Catalog }

// KeywordProb returns 1 for every interpretation (uniform).
func (u *UniformScorer) KeywordProb(query.KeywordInterpretation) float64 { return 1 }

// Catalog returns the template catalogue.
func (u *UniformScorer) Catalog() *query.Catalog { return u.Cat }

// RankContext assigns equal probability to every interpretation.
func (u *UniformScorer) RankContext(ctx context.Context, space []*query.Interpretation) ([]prob.Scored, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]prob.Scored, len(space))
	for i, q := range space {
		out[i] = prob.Scored{Q: q, Score: 1, Prob: 1 / float64(len(space))}
	}
	return out, nil
}

// Fig35Result carries the per-query interaction costs of Figure 3.5 for
// the three probability estimates.
type Fig35Result struct {
	Table    *Table
	Baseline []float64
	ATF      []float64 // ATF + equal template priors
	ATFLog   []float64 // ATF + query-log template priors
}

// Fig3_5 measures the interaction cost of query construction under the
// three probability estimates of Section 3.8.2 on the environment's
// workload. logSkew sets the template-log skew (0.85 for Lyrics-like
// logs, 0.2 for near-uniform IMDB-like logs).
func Fig3_5(env *Env, intents []datagen.Intent, logSkew float64, seed int64) (*Fig35Result, error) {
	res := &Fig35Result{Table: &Table{
		Title:   fmt.Sprintf("Figure 3.5 (%s): interaction cost per probability estimate", env.Name),
		Headers: []string{"query", "baseline", "ATF,Tequal", "ATF,TLog"},
	}}
	logCat := &query.Catalog{
		Templates:  env.Cat.Templates,
		UsageCount: datagen.TemplateLog(len(env.Cat.Templates), 1000, logSkew, seed),
	}

	scorers := []core.Scorer{
		&UniformScorer{Cat: env.Cat},
		env.Model(prob.Config{}),
		prob.New(env.IX, logCat, prob.Config{UseTemplateLog: true}),
	}
	sinks := []*[]float64{&res.Baseline, &res.ATF, &res.ATFLog}

	for qi, in := range intents {
		c := env.Candidates(in.Keywords)
		space := env.Space(c, 0)
		intended, ok := env.ResolveIntent(in, space)
		if !ok {
			continue
		}
		row := []interface{}{fmt.Sprintf("q%02d", qi)}
		usable := true
		var costs []int
		for _, scorer := range scorers {
			sess, err := core.NewSessionContext(context.Background(), scorer, c, core.SessionConfig{StopAtRemaining: 5})
			if err != nil {
				usable = false
				break
			}
			run, err := core.RunConstruction(context.Background(), sess, core.NewSimulatedUser(intended))
			if err != nil {
				usable = false
				break
			}
			costs = append(costs, run.Steps)
		}
		if !usable {
			continue
		}
		for i, c := range costs {
			*sinks[i] = append(*sinks[i], float64(c))
			row = append(row, c)
		}
		res.Table.AddRow(row...)
	}
	res.Table.Notes = append(res.Table.Notes,
		fmt.Sprintf("means: baseline=%.2f ATF=%.2f ATF+log=%.2f over %d queries",
			metrics.Mean(res.Baseline), metrics.Mean(res.ATF), metrics.Mean(res.ATFLog),
			len(res.Baseline)))
	return res, nil
}

// Fig36Result carries the interaction-cost samples of Figure 3.6.
type Fig36Result struct {
	Table        *Table
	RankSQAK     []float64
	RankIQP      []float64
	Construction []float64
}

// Fig3_6 compares the interaction cost of query ranking (SQAK and IQP
// ranking functions: the rank of the intended interpretation) against
// incremental construction (number of options evaluated), reporting the
// boxplot statistics of Figure 3.6.
func Fig3_6(env *Env, intents []datagen.Intent) (*Fig36Result, error) {
	res := &Fig36Result{Table: &Table{
		Title:   fmt.Sprintf("Figure 3.6 (%s): construction vs ranking (boxplot stats)", env.Name),
		Headers: []string{"series", "min", "q1", "median", "q3", "max", "mean", "n"},
	}}
	model := env.Model(prob.Config{})
	sqak := ranking.NewSQAK(env.IX)
	for _, in := range intents {
		c := env.Candidates(in.Keywords)
		space := env.Space(c, 0)
		intended, ok := env.ResolveIntent(in, space)
		if !ok {
			continue
		}
		ranked, err := model.RankContext(context.Background(), space)
		if err != nil {
			return nil, err
		}
		iqpRank := ranking.ProbRankOf(ranked, intended.Key())
		sqakRank := ranking.RankOf(sqak.Rank(space), intended.Key())
		if iqpRank == 0 || sqakRank == 0 {
			continue
		}
		sess, err := core.NewSessionContext(context.Background(), model, c, core.SessionConfig{StopAtRemaining: 5})
		if err != nil {
			continue
		}
		run, err := core.RunConstruction(context.Background(), sess, core.NewSimulatedUser(intended))
		if err != nil {
			continue
		}
		res.RankSQAK = append(res.RankSQAK, float64(sqakRank))
		res.RankIQP = append(res.RankIQP, float64(iqpRank))
		// Construction cost = options evaluated + the final scan of the
		// remaining query window.
		res.Construction = append(res.Construction, float64(run.Steps+run.RemainingRank))
	}
	for _, s := range []struct {
		name   string
		sample []float64
	}{
		{"Rank (SQAK)", res.RankSQAK},
		{"Rank (IQP)", res.RankIQP},
		{"Construction (IQP)", res.Construction},
	} {
		b := metrics.Summarize(s.sample)
		res.Table.AddRow(s.name, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean, b.N)
	}
	return res, nil
}

// Fig37Row is one complexity category of the user-study simulation.
type Fig37Row struct {
	Category         int
	RankMedian       float64
	ConstructSeconds float64
	RankSeconds      float64
}

// Fig3_7 reproduces the user study of Section 3.8.4 with the simulated
// user's time model: tasks are grouped into complexity categories by the
// rank of the intended interpretation (category k ≈ page k of 20 results)
// and the median task completion time is reported per interface.
func Fig3_7(env *Env, intents []datagen.Intent) ([]Fig37Row, *Table, error) {
	model := env.Model(prob.Config{})
	type sample struct {
		rank      int
		construct float64
	}
	byCat := map[int][]sample{}
	for _, in := range intents {
		c := env.Candidates(in.Keywords)
		space := env.Space(c, 0)
		intended, ok := env.ResolveIntent(in, space)
		if !ok {
			continue
		}
		ranked, err := model.RankContext(context.Background(), space)
		if err != nil {
			return nil, nil, err
		}
		rank := ranking.ProbRankOf(ranked, intended.Key())
		if rank == 0 {
			continue
		}
		sess, err := core.NewSessionContext(context.Background(), model, c, core.SessionConfig{StopAtRemaining: 5})
		if err != nil {
			continue
		}
		run, err := core.RunConstruction(context.Background(), sess, core.NewSimulatedUser(intended))
		if err != nil {
			continue
		}
		u := core.NewSimulatedUser(intended)
		cat := (rank - 1) / 20
		byCat[cat] = append(byCat[cat], sample{
			rank:      rank,
			construct: u.ConstructionTime(run.Steps, run.RemainingRank).Seconds(),
		})
	}
	table := &Table{
		Title:   fmt.Sprintf("Figure 3.7 (%s): median task time by complexity category", env.Name),
		Headers: []string{"category", "tasks", "median rank", "ranking (s)", "construction (s)"},
	}
	var rows []Fig37Row
	u := core.NewSimulatedUser(nil)
	maxCat := 0
	for k := range byCat {
		if k > maxCat {
			maxCat = k
		}
	}
	for cat := 0; cat <= maxCat; cat++ {
		ss := byCat[cat]
		if len(ss) == 0 {
			continue
		}
		var ranks, cons []float64
		for _, s := range ss {
			ranks = append(ranks, float64(s.rank))
			cons = append(cons, s.construct)
		}
		row := Fig37Row{
			Category:         cat,
			RankMedian:       metrics.Median(ranks),
			ConstructSeconds: metrics.Median(cons),
			RankSeconds:      u.RankingTime(int(metrics.Median(ranks))).Seconds(),
		}
		rows = append(rows, row)
		table.AddRow(cat, len(ss), row.RankMedian, row.RankSeconds, row.ConstructSeconds)
	}
	return rows, table, nil
}

// Table32Row is one configuration of the greedy-vs-database-size sweep.
type Table32Row struct {
	Tables          int
	Interpretations float64
	// Steps[t] and TimePerStep[t] are indexed by threshold.
	Steps       map[int]float64
	TimePerStep map[int]time.Duration
}

// Table3_2 runs the Section 3.8.5 simulation across database sizes for
// the greedy thresholds 10/20/30 (Table 3.2).
func Table3_2(sizes []int, thresholds []int, keywords, reps int, seed int64) ([]Table32Row, *Table, error) {
	table := &Table{
		Title:   "Table 3.2: greedy algorithm vs database size",
		Headers: []string{"tables", "#queries"},
	}
	for _, th := range thresholds {
		table.Headers = append(table.Headers,
			fmt.Sprintf("steps(T=%d)", th), fmt.Sprintf("time/step(T=%d)", th))
	}
	var rows []Table32Row
	for _, n := range sizes {
		row := Table32Row{Tables: n, Steps: map[int]float64{}, TimePerStep: map[int]time.Duration{}}
		for _, th := range thresholds {
			var interp, steps float64
			var t time.Duration
			ok := 0
			for r := 0; r < reps; r++ {
				res, err := core.RunSimulation(context.Background(), core.SimConfig{
					Tables: n, Keywords: keywords, Threshold: th,
					Seed: seed + int64(r) + int64(n*1000),
				})
				if err != nil {
					continue
				}
				ok++
				interp += float64(res.Interpretations)
				steps += float64(res.Steps)
				t += res.TimePerStep
			}
			if ok == 0 {
				return nil, nil, fmt.Errorf("expt: all simulation runs failed for n=%d T=%d", n, th)
			}
			row.Interpretations = interp / float64(ok)
			row.Steps[th] = steps / float64(ok)
			row.TimePerStep[th] = t / time.Duration(ok)
		}
		rows = append(rows, row)
		cells := []interface{}{n, fmt.Sprintf("%.0f", row.Interpretations)}
		for _, th := range thresholds {
			cells = append(cells, fmt.Sprintf("%.1f", row.Steps[th]),
				row.TimePerStep[th].Round(time.Microsecond).String())
		}
		table.AddRow(cells...)
	}
	return rows, table, nil
}

// Table3_3 runs the simulation across keyword-query lengths (Table 3.3).
func Table3_3(keywordCounts []int, thresholds []int, tables, reps int, seed int64) ([]Table32Row, *Table, error) {
	table := &Table{
		Title:   "Table 3.3: greedy algorithm vs number of keywords",
		Headers: []string{"keywords", "#queries"},
	}
	for _, th := range thresholds {
		table.Headers = append(table.Headers,
			fmt.Sprintf("steps(T=%d)", th), fmt.Sprintf("time/step(T=%d)", th))
	}
	var rows []Table32Row
	for _, k := range keywordCounts {
		row := Table32Row{Tables: k, Steps: map[int]float64{}, TimePerStep: map[int]time.Duration{}}
		for _, th := range thresholds {
			var interp, steps float64
			var t time.Duration
			ok := 0
			for r := 0; r < reps; r++ {
				res, err := core.RunSimulation(context.Background(), core.SimConfig{
					Tables: tables, Keywords: k, Threshold: th,
					Seed: seed + int64(r) + int64(k*1000),
				})
				if err != nil {
					continue
				}
				ok++
				interp += float64(res.Interpretations)
				steps += float64(res.Steps)
				t += res.TimePerStep
			}
			if ok == 0 {
				return nil, nil, fmt.Errorf("expt: all simulation runs failed for k=%d T=%d", k, th)
			}
			row.Interpretations = interp / float64(ok)
			row.Steps[th] = steps / float64(ok)
			row.TimePerStep[th] = t / time.Duration(ok)
		}
		rows = append(rows, row)
		cells := []interface{}{k, fmt.Sprintf("%.0f", row.Interpretations)}
		for _, th := range thresholds {
			cells = append(cells, fmt.Sprintf("%.1f", row.Steps[th]),
				row.TimePerStep[th].Round(time.Microsecond).String())
		}
		table.AddRow(cells...)
	}
	return rows, table, nil
}

// Table34Row compares brute-force and greedy plan costs.
type Table34Row struct {
	Items, Options        int
	BruteCost, GreedyCost float64
	RelativeDifferencePct float64
}

// Table3_4 reproduces the plan-quality comparison of Table 3.4: random
// abstract spaces where each option subsumes half the interpretations.
func Table3_4(configs [][2]int, reps int, seed int64) ([]Table34Row, *Table, error) {
	rng := rand.New(rand.NewSource(seed))
	table := &Table{
		Title:   "Table 3.4: result quality of the two algorithms",
		Headers: []string{"#queries", "#options", "brute force cost", "greedy cost", "diff %"},
	}
	var rows []Table34Row
	for _, cfg := range configs {
		items, options := cfg[0], cfg[1]
		var bSum, gSum float64
		for r := 0; r < reps; r++ {
			space := randomPlanSpace(rng, items, options)
			bp, err := core.OptimalPlan(space)
			if err != nil {
				return nil, nil, err
			}
			gp, err := core.GreedyPlan(space)
			if err != nil {
				return nil, nil, err
			}
			bSum += bp.Cost
			gSum += gp.Cost
		}
		row := Table34Row{
			Items: items, Options: options,
			BruteCost: bSum / float64(reps), GreedyCost: gSum / float64(reps),
		}
		if row.BruteCost > 0 {
			row.RelativeDifferencePct = 100 * (row.GreedyCost - row.BruteCost) / row.BruteCost
		}
		rows = append(rows, row)
		table.AddRow(items, options, row.BruteCost, row.GreedyCost,
			fmt.Sprintf("%.2f%%", row.RelativeDifferencePct))
	}
	return rows, table, nil
}

// randomPlanSpace builds the Table 3.4 configuration: each option
// subsumes a random half of the interpretations; probabilities random.
func randomPlanSpace(rng *rand.Rand, items, options int) *core.PlanSpace {
	s := &core.PlanSpace{}
	total := 0.0
	probs := make([]float64, items)
	for i := range probs {
		probs[i] = rng.Float64() + 1e-6
		total += probs[i]
	}
	for i := 0; i < items; i++ {
		s.Items = append(s.Items, core.PlanItem{Key: fmt.Sprintf("q%d", i), Prob: probs[i] / total})
	}
	for o := 0; o < options; o++ {
		perm := rng.Perm(items)
		var mask uint64
		for _, i := range perm[:items/2] {
			mask |= 1 << uint(i)
		}
		s.Options = append(s.Options, core.PlanOption{Key: fmt.Sprintf("o%d", o), Subsumes: mask})
	}
	return s
}

// Table31Row is one example task of the user study (Table 3.1): the rank
// of the intended interpretation under IQP ranking (C1), the approximate
// number of construction options to evaluate (C2), and the size of the
// interpretation space |I|.
type Table31Row struct {
	Query     string
	C1        int
	C2        int
	SpaceSize int
}

// Table3_1 builds the example-task table over the workload: the tasks
// with the highest intended-interpretation ranks, i.e. where ranking
// alone fails and construction is needed.
func Table3_1(env *Env, intents []datagen.Intent, tasks int) ([]Table31Row, *Table, error) {
	model := env.Model(prob.Config{})
	var rows []Table31Row
	for _, in := range intents {
		c := env.Candidates(in.Keywords)
		space := env.Space(c, 0)
		intended, ok := env.ResolveIntent(in, space)
		if !ok {
			continue
		}
		ranked, err := model.RankContext(context.Background(), space)
		if err != nil {
			return nil, nil, err
		}
		rank := ranking.ProbRankOf(ranked, intended.Key())
		if rank == 0 {
			continue
		}
		sess, err := core.NewSessionContext(context.Background(), model, c, core.SessionConfig{StopAtRemaining: 5})
		if err != nil {
			continue
		}
		run, err := core.RunConstruction(context.Background(), sess, core.NewSimulatedUser(intended))
		if err != nil {
			continue
		}
		rows = append(rows, Table31Row{
			Query:     fmt.Sprintf("%v", in.Keywords),
			C1:        rank,
			C2:        run.Steps,
			SpaceSize: len(space),
		})
	}
	// Keep the hardest tasks: highest ranks first.
	sort.Slice(rows, func(i, j int) bool { return rows[i].C1 > rows[j].C1 })
	if len(rows) > tasks {
		rows = rows[:tasks]
	}
	table := &Table{
		Title:   fmt.Sprintf("Table 3.1 (%s): example tasks for the user study", env.Name),
		Headers: []string{"task", "C1 (rank)", "C2 (options)", "|I|"},
	}
	for _, r := range rows {
		table.AddRow(r.Query, r.C1, r.C2, r.SpaceSize)
	}
	table.Notes = append(table.Notes,
		"C1: rank of the intended interpretation under IQP ranking; "+
			"C2: construction options evaluated; |I|: interpretation-space size")
	return rows, table, nil
}
