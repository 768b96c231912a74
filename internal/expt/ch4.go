package expt

import (
	"context"
	"fmt"
	"time"

	"repro/internal/datagen"
	"repro/internal/divq"
	"repro/internal/metrics"
	"repro/internal/prob"
	"repro/internal/relstore"
)

// divqModel is the Chapter 4 configuration: co-occurrence-aware relevance
// (Equation 4.2).
func divqModel(env *Env) *prob.Model {
	return env.Model(prob.Config{UseCoOccurrence: true})
}

// rankedFor materialises and ranks the non-empty interpretations of an
// intent's keyword query, capped at top-25 as in Section 4.6.2.
func rankedFor(env *Env, model *prob.Model, in datagen.Intent, cap int) ([]prob.Scored, error) {
	c := env.Candidates(in.Keywords)
	space := env.Space(c, 0)
	ranked, err := model.RankContext(context.Background(), space)
	if err != nil {
		return nil, err
	}
	if cap > 0 && len(ranked) > cap {
		ranked = ranked[:cap]
	}
	return divq.FilterNonEmptyExec(context.Background(), &relstore.LocalExecutor{DB: env.DB, Cache: relstore.NewSelectionCache()}, ranked)
}

// Table4_1 prints the worked example of Table 4.1: the top-3 relevance
// ranking against the top-3 diversification of one ambiguous query.
func Table4_1(env *Env, in datagen.Intent, lambda float64) (*Table, error) {
	model := divqModel(env)
	ranked, err := rankedFor(env, model, in, 25)
	if err != nil {
		return nil, err
	}
	k := 3
	if k > len(ranked) {
		k = len(ranked)
	}
	div := divq.Diversify(ranked, divq.Config{Lambda: lambda, K: k})
	t := &Table{
		Title:   fmt.Sprintf("Table 4.1 (%s): top-%d ranking vs diversification for %v", env.Name, k, in.Keywords),
		Headers: []string{"rank", "P", "ranking", "P", "diversification"},
	}
	for i := 0; i < k; i++ {
		t.AddRow(i+1, ranked[i].Prob, ranked[i].Q.String(), div[i].Prob, div[i].Q.String())
	}
	return t, nil
}

// Fig41Result carries the probability-ratio curves of Figure 4.1.
type Fig41Result struct {
	Table *Table
	// AvgPR[i] / MaxPR[i] aggregate PR at rank i+1 across queries.
	AvgPR []float64
	MaxPR []float64
}

// Fig4_1 computes the maximum and average probability ratio PR_i per rank
// over the workload (Figure 4.1): how quickly interpretation probability
// decays with rank.
func Fig4_1(env *Env, intents []datagen.Intent, maxRank int) (*Fig41Result, error) {
	model := divqModel(env)
	sums := make([]float64, maxRank)
	maxs := make([]float64, maxRank)
	counts := make([]int, maxRank)
	for _, in := range intents {
		ranked, err := rankedFor(env, model, in, maxRank)
		if err != nil {
			return nil, err
		}
		pr := divq.ProbabilityRatio(ranked)
		for i := 1; i < len(pr) && i < maxRank; i++ {
			sums[i] += pr[i]
			counts[i]++
			if pr[i] > maxs[i] {
				maxs[i] = pr[i]
			}
		}
	}
	res := &Fig41Result{Table: &Table{
		Title:   fmt.Sprintf("Figure 4.1 (%s): probability ratio vs rank", env.Name),
		Headers: []string{"rank", "avg PR", "max PR", "queries"},
	}}
	for i := 1; i < maxRank; i++ {
		if counts[i] == 0 {
			continue
		}
		avg := sums[i] / float64(counts[i])
		res.AvgPR = append(res.AvgPR, avg)
		res.MaxPR = append(res.MaxPR, maxs[i])
		res.Table.AddRow(i+1, fmt.Sprintf("%.4f", avg), fmt.Sprintf("%.4f", maxs[i]), counts[i])
	}
	return res, nil
}

// Fig42Point is one (α, k, class) cell of Figure 4.2.
type Fig42Point struct {
	Alpha        float64
	K            int
	MultiConcept bool
	Ranking      float64
	Diversified  float64
}

// Fig4_2 measures α-nDCG-W at top-k for the relevance ranking and for
// DivQ diversification (λ = 0.1 as in Section 4.6.3), split into
// single-concept and multi-concept queries, for α ∈ {0, 0.5, 0.99}.
func Fig4_2(env *Env, intents []datagen.Intent, alphas []float64, maxK int, lambda float64) ([]Fig42Point, *Table, error) {
	model := divqModel(env)
	type obs struct{ rank, div []float64 } // per-query values at each k
	cells := map[string]*obs{}
	key := func(alpha float64, k int, mc bool) string {
		return fmt.Sprintf("%v|%d|%v", alpha, k, mc)
	}
	for _, in := range intents {
		ranked, err := rankedFor(env, model, in, 25)
		if err != nil {
			return nil, nil, err
		}
		if len(ranked) < 2 {
			continue
		}
		k := maxK
		if k > len(ranked) {
			k = len(ranked)
		}
		rel := IntentRelevance(in)
		div := divq.Diversify(ranked, divq.Config{Lambda: lambda, K: k})
		universe, err := divq.ToItems(env.DB, ranked, rel, 200)
		if err != nil {
			return nil, nil, err
		}
		rankItems := universe[:k]
		divItems, err := divq.ToItems(env.DB, div, rel, 200)
		if err != nil {
			return nil, nil, err
		}
		ideal := metrics.IdealOrder(universe)
		for _, alpha := range alphas {
			aR := metrics.AlphaNDCGW(rankItems, ideal, alpha)
			aD := metrics.AlphaNDCGW(divItems, ideal, alpha)
			for kk := 1; kk <= k; kk++ {
				c := cells[key(alpha, kk, in.MultiConcept)]
				if c == nil {
					c = &obs{}
					cells[key(alpha, kk, in.MultiConcept)] = c
				}
				c.rank = append(c.rank, aR[kk-1])
				c.div = append(c.div, aD[kk-1])
			}
		}
	}
	table := &Table{
		Title:   fmt.Sprintf("Figure 4.2 (%s): α-nDCG-W, ranking vs diversification", env.Name),
		Headers: []string{"alpha", "k", "class", "rank", "div", "n"},
	}
	var points []Fig42Point
	for _, alpha := range alphas {
		for kk := 1; kk <= maxK; kk++ {
			for _, mc := range []bool{false, true} {
				c := cells[key(alpha, kk, mc)]
				if c == nil || len(c.rank) == 0 {
					continue
				}
				p := Fig42Point{
					Alpha: alpha, K: kk, MultiConcept: mc,
					Ranking:     metrics.Mean(c.rank),
					Diversified: metrics.Mean(c.div),
				}
				points = append(points, p)
				class := "sc"
				if mc {
					class = "mc"
				}
				table.AddRow(alpha, kk, class, p.Ranking, p.Diversified, len(c.rank))
			}
		}
	}
	return points, table, nil
}

// Fig43Point is one k-cell of the WS-recall comparison (Figure 4.3).
type Fig43Point struct {
	K           int
	Ranking     float64
	Diversified float64
}

// Fig4_3 measures WS-recall at top-k for ranking and diversification.
func Fig4_3(env *Env, intents []datagen.Intent, maxK int, lambda float64) ([]Fig43Point, *Table, error) {
	model := divqModel(env)
	rankSums := make([]float64, maxK+1)
	divSums := make([]float64, maxK+1)
	counts := make([]int, maxK+1)
	for _, in := range intents {
		ranked, err := rankedFor(env, model, in, 25)
		if err != nil {
			return nil, nil, err
		}
		if len(ranked) < 2 {
			continue
		}
		k := maxK
		if k > len(ranked) {
			k = len(ranked)
		}
		rel := IntentRelevance(in)
		div := divq.Diversify(ranked, divq.Config{Lambda: lambda, K: k})
		universe, err := divq.ToItems(env.DB, ranked, rel, 200)
		if err != nil {
			return nil, nil, err
		}
		divItems, err := divq.ToItems(env.DB, div, rel, 200)
		if err != nil {
			return nil, nil, err
		}
		wsR := metrics.WSRecall(universe[:k], universe)
		wsD := metrics.WSRecall(divItems, universe)
		for kk := 1; kk <= k; kk++ {
			rankSums[kk] += wsR[kk-1]
			divSums[kk] += wsD[kk-1]
			counts[kk]++
		}
	}
	table := &Table{
		Title:   fmt.Sprintf("Figure 4.3 (%s): WS-recall, ranking vs diversification", env.Name),
		Headers: []string{"k", "rank", "div", "n"},
	}
	var points []Fig43Point
	for kk := 1; kk <= maxK; kk++ {
		if counts[kk] == 0 {
			continue
		}
		p := Fig43Point{
			K:           kk,
			Ranking:     rankSums[kk] / float64(counts[kk]),
			Diversified: divSums[kk] / float64(counts[kk]),
		}
		points = append(points, p)
		table.AddRow(kk, p.Ranking, p.Diversified, counts[kk])
	}
	return points, table, nil
}

// Fig44Point is one λ-cell of the relevance/novelty trade-off
// (Figure 4.4).
type Fig44Point struct {
	Lambda float64
	// Relevance is the mean aggregated probability of the selected
	// interpretations; Novelty is 1 − mean pairwise similarity.
	Relevance float64
	Novelty   float64
}

// Fig4_4 sweeps λ and reports the relevance/novelty balance of the
// diversified top-k.
func Fig4_4(env *Env, intents []datagen.Intent, lambdas []float64, k int) ([]Fig44Point, *Table, error) {
	model := divqModel(env)
	table := &Table{
		Title:   fmt.Sprintf("Figure 4.4 (%s): relevance vs novelty across λ", env.Name),
		Headers: []string{"lambda", "relevance", "novelty", "n"},
	}
	var points []Fig44Point
	for _, lambda := range lambdas {
		var rels, novs []float64
		for _, in := range intents {
			ranked, err := rankedFor(env, model, in, 25)
			if err != nil {
				return nil, nil, err
			}
			if len(ranked) < 3 {
				continue
			}
			kk := k
			if kk > len(ranked) {
				kk = len(ranked)
			}
			div := divq.Diversify(ranked, divq.Config{Lambda: lambda, K: kk})
			rel := 0.0
			for _, s := range div {
				rel += s.Prob
			}
			simSum, simCnt := 0.0, 0
			for i := 0; i < len(div); i++ {
				for j := i + 1; j < len(div); j++ {
					simSum += divq.Similarity(div[i].Q, div[j].Q)
					simCnt++
				}
			}
			nov := 1.0
			if simCnt > 0 {
				nov = 1 - simSum/float64(simCnt)
			}
			rels = append(rels, rel)
			novs = append(novs, nov)
		}
		p := Fig44Point{Lambda: lambda, Relevance: metrics.Mean(rels), Novelty: metrics.Mean(novs)}
		points = append(points, p)
		table.AddRow(lambda, p.Relevance, p.Novelty, len(rels))
	}
	return points, table, nil
}

// AblationDivqEarlyStop measures the wall-clock effect of the
// score-upper-bound early stop of Algorithm 4.1 (identical output,
// different scan cost).
func AblationDivqEarlyStop(env *Env, intents []datagen.Intent, k int, lambda float64) (*Table, error) {
	model := divqModel(env)
	var withStop, withoutStop time.Duration
	queries := 0
	for _, in := range intents {
		ranked, err := rankedFor(env, model, in, 25)
		if err != nil {
			return nil, err
		}
		if len(ranked) < 3 {
			continue
		}
		queries++
		start := time.Now()
		a := divq.Diversify(ranked, divq.Config{Lambda: lambda, K: k})
		withStop += time.Since(start)
		start = time.Now()
		b := divq.Diversify(ranked, divq.Config{Lambda: lambda, K: k, DisableEarlyStop: true})
		withoutStop += time.Since(start)
		if len(a) != len(b) {
			return nil, fmt.Errorf("expt: early stop changed the result length")
		}
		for i := range a {
			if a[i].Q.Key() != b[i].Q.Key() {
				return nil, fmt.Errorf("expt: early stop changed the result at %d", i)
			}
		}
	}
	t := &Table{
		Title:   fmt.Sprintf("Ablation (%s): DivQ early stop (identical output)", env.Name),
		Headers: []string{"variant", "total time", "queries"},
	}
	t.AddRow("with early stop", withStop.Round(time.Microsecond).String(), queries)
	t.AddRow("full scan", withoutStop.Round(time.Microsecond).String(), queries)
	return t, nil
}

// PickAmbiguousIntents keeps the intents whose top-10 interpretation
// probabilities have the highest entropy (the ambiguity filter of
// Section 4.6.1), returning up to n of them.
func PickAmbiguousIntents(env *Env, intents []datagen.Intent, n int) ([]datagen.Intent, error) {
	model := divqModel(env)
	type scored struct {
		in      datagen.Intent
		entropy float64
	}
	var all []scored
	for _, in := range intents {
		ranked, err := rankedFor(env, model, in, 10)
		if err != nil {
			return nil, err
		}
		if len(ranked) < 2 {
			continue
		}
		weights := make([]float64, len(ranked))
		for i, s := range ranked {
			weights[i] = s.Score
		}
		all = append(all, scored{in: in, entropy: prob.NormalizedEntropy(weights)})
	}
	// Selection sort by descending entropy (n is small).
	var out []datagen.Intent
	used := make([]bool, len(all))
	for len(out) < n && len(out) < len(all) {
		best := -1
		for i, s := range all {
			if used[i] {
				continue
			}
			if best < 0 || s.entropy > all[best].entropy {
				best = i
			}
		}
		used[best] = true
		out = append(out, all[best].in)
	}
	return out, nil
}
