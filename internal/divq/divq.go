// Package divq implements DivQ — diversification of keyword-search
// results over structured data (Chapter 4). Diversification happens at
// the query-interpretation level, before any results are materialised:
// given the probability-ranked interpretations of a keyword query, DivQ
// re-ranks them to balance relevance against novelty (Equation 4.4) using
// the Jaccard similarity of their keyword-interpretation sets
// (Definition 4.4.1 / Equation 4.3) and the greedy selection with
// score-upper-bound early stopping of Algorithm 4.1.
package divq

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/relstore"
)

// Similarity is the Jaccard coefficient between the keyword-interpretation
// sets of two query interpretations (Equation 4.3). 1 means identical
// element sets; 0 means disjoint. Binding lists are a handful long, so
// the sets are compared by value in place: a binding counts once, at its
// first occurrence in its list.
func Similarity(a, b *query.Interpretation) float64 {
	if len(a.Bindings) == 0 && len(b.Bindings) == 0 {
		return 1
	}
	inter, union := 0, 0
	for i, bd := range a.Bindings {
		if !bound(a.Bindings[:i], bd.KI) {
			union++
		}
	}
	for i, bd := range b.Bindings {
		if bound(b.Bindings[:i], bd.KI) {
			continue
		}
		if bound(a.Bindings, bd.KI) {
			inter++
		} else {
			union++
		}
	}
	return float64(inter) / float64(union)
}

// bound reports whether ki is among the bindings' keyword interpretations.
func bound(bindings []query.Binding, ki *query.KeywordInterpretation) bool {
	for _, bd := range bindings {
		if *bd.KI == *ki {
			return true
		}
	}
	return false
}

// Config tunes diversification.
type Config struct {
	// Lambda trades relevance against novelty (Equation 4.4): 1 = pure
	// relevance ranking, 0.5 = balanced, <0.5 emphasises novelty. The
	// evaluation of Section 4.6.3 uses 0.1. It must lie in [0, 1]: above
	// 1 the novelty weight 1−λ turns negative, the similarity penalty
	// becomes a bonus, and the early stop's bound λ·P no longer bounds a
	// candidate's score, so early stopping would change the output.
	Lambda float64
	// K is the number of interpretations to select.
	K int
	// DisableEarlyStop turns off the score-upper-bound early stop of
	// Algorithm 4.1 (ablation; results are identical, only slower).
	DisableEarlyStop bool
}

// Diversify re-ranks the probability-ranked interpretation list into the
// top-K relevant-and-diverse list per Algorithm 4.1. The input must be
// sorted by descending probability (as produced by
// prob.Model.RankContext); the first output element is always the most
// relevant interpretation.
//
// Per Section 4.4.4, relevance and similarity are normalised to equal
// means before λ-weighting.
func Diversify(ranked []prob.Scored, cfg Config) []prob.Scored {
	r := cfg.K
	if r <= 0 || r > len(ranked) {
		r = len(ranked)
	}
	if len(ranked) == 0 || r == 0 {
		return nil
	}
	lambda := cfg.Lambda

	// Normalisation: scale similarities so their mean matches the mean
	// relevance over the candidate list.
	meanRel := 0.0
	for _, s := range ranked {
		meanRel += s.Prob
	}
	meanRel /= float64(len(ranked))
	simSum, simCnt := 0.0, 0
	for i := 0; i < len(ranked); i++ {
		for j := i + 1; j < len(ranked); j++ {
			simSum += Similarity(ranked[i].Q, ranked[j].Q)
			simCnt++
		}
	}
	simScale := 1.0
	if simCnt > 0 && simSum > 0 {
		simScale = meanRel / (simSum / float64(simCnt))
	}

	// Working copy L, output R (Algorithm 4.1).
	L := make([]prob.Scored, len(ranked))
	copy(L, ranked)
	out := make([]prob.Scored, 0, r)
	out = append(out, L[0])

	score := func(cand prob.Scored) float64 {
		simAvg := 0.0
		for _, sel := range out {
			simAvg += Similarity(cand.Q, sel.Q)
		}
		simAvg = simAvg * simScale / float64(len(out))
		return lambda*cand.Prob - (1-lambda)*simAvg
	}

	for i := 1; i < r; i++ {
		j := i
		bestScore := negInf
		c := -1
		for j < len(L) {
			// Early stop: candidates are sorted by probability, and the
			// achievable score is bounded by λ·P(L[j]) because the
			// similarity penalty is non-negative.
			if !cfg.DisableEarlyStop && c >= 0 && bestScore > lambda*L[j].Prob {
				break
			}
			if s := score(L[j]); s > bestScore {
				bestScore = s
				c = j
			}
			j++
		}
		if c < 0 {
			break
		}
		out = append(out, L[c])
		// Swap L[i..c-1] and L[c]: move the chosen element into position i
		// keeping the remainder sorted by probability.
		chosen := L[c]
		copy(L[i+1:c+1], L[i:c])
		L[i] = chosen
	}
	return out
}

const negInf = -1e308

// ResultNuggets executes the interpretation and returns the identities of
// the tuples in its results — the information nuggets / subtopics of the
// adapted metrics (Section 4.5). limit caps materialisation (0 =
// unlimited).
func ResultNuggets(db *relstore.Database, q *query.Interpretation, limit int) ([]string, error) {
	plan, err := q.JoinPlan()
	if err != nil {
		return nil, err
	}
	jtts, err := db.Execute(plan, relstore.ExecuteOptions{Limit: limit})
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []string
	for _, jtt := range jtts {
		for _, key := range jtt.Keys(plan) {
			s := fmt.Sprintf("%s#%d", key.Table, key.RowID)
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// FilterNonEmptyExec keeps the interpretations with non-empty results,
// preserving order; DivQ assigns zero probability to empty
// interpretations (Section 4.4.2). Emptiness probes go through any
// relstore.PlanExecutor, which counts exactly as Database.Count does, so
// the surviving interpretation list is identical whatever executor runs
// them. The context is checked before every probe, so an abandoned
// request stops executing. Give the executor a SelectionCache: the
// interpretations of a query mostly recombine the same (table, column,
// keyword-bag) selections, so each is then evaluated once per call.
func FilterNonEmptyExec(ctx context.Context, exec relstore.PlanExecutor, ranked []prob.Scored) ([]prob.Scored, error) {
	var out []prob.Scored
	for _, s := range ranked {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		plan, err := s.Q.JoinPlan()
		if err != nil {
			return nil, err
		}
		n, err := exec.CountPlan(plan, 1)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			out = append(out, s)
		}
	}
	return out, nil
}

// ToItems converts a ranked interpretation list into metrics items: the
// graded relevance per interpretation comes from the supplied assessment
// function (the user-study scores of Section 4.6.2, or their simulation),
// and the nuggets are the materialised result identities.
func ToItems(db *relstore.Database, ranked []prob.Scored, relevance func(*query.Interpretation) float64, limit int) ([]metrics.Item, error) {
	out := make([]metrics.Item, 0, len(ranked))
	for _, s := range ranked {
		nuggets, err := ResultNuggets(db, s.Q, limit)
		if err != nil {
			return nil, err
		}
		out = append(out, metrics.Item{Relevance: relevance(s.Q), Nuggets: nuggets})
	}
	return out, nil
}

// ProbabilityRatio computes the PR_i series of Figure 4.1: for each rank
// i ≥ 1 (0-based index ≥ 1), the ratio of the probability at rank i to
// the aggregated probability of ranks < i.
func ProbabilityRatio(ranked []prob.Scored) []float64 {
	out := make([]float64, len(ranked))
	prefix := 0.0
	for i, s := range ranked {
		if i == 0 {
			out[i] = 1
		} else if prefix > 0 {
			out[i] = s.Prob / prefix
		}
		prefix += s.Prob
	}
	return out
}
