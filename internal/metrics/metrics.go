// Package metrics implements the evaluation measures of the thesis:
//
//   - α-nDCG-W (Section 4.5.1, Equations 4.5–4.6): the diversity-aware
//     nDCG adapted to structured results, where an information nugget is a
//     primary key in the result of a query interpretation and gains carry
//     the graded relevance of interpretations, discounted by result
//     overlap with earlier ranks;
//   - WS-recall (Section 4.5.2, Equation 4.7): weighted subtopic recall
//     over primary keys with graded relevance;
//   - descriptive statistics used by the experiment harness (quartile/
//     boxplot summaries of Figure 3.6, medians of Figure 3.7).
//
// Plain nDCG is AlphaNDCGW with α = 0.
//
// Result items are abstract: an item has a graded relevance and a set of
// nugget identifiers (primary keys rendered as strings), so the package
// has no dependency on the storage engine.
package metrics

import (
	"math"
	"sort"
)

// Item is one ranked result: a query interpretation with its graded
// relevance and the identities of the tuples (primary keys) it returns.
type Item struct {
	Relevance float64
	Nuggets   []string
}

// AlphaNDCGW computes α-nDCG-W@k for every k in 1..len(ranked), per
// Equations 4.5–4.6: the gain of the item at rank k is its relevance
// discounted by (1-α)^r where r aggregates, over the item's nuggets, how
// many earlier items contained each nugget. The result is normalised by
// the gain vector of the ideal ranking, which (per Section 4.6.3) orders
// items by user-assessed relevance.
func AlphaNDCGW(ranked, ideal []Item, alpha float64) []float64 {
	dcg := cumulativeDiscountedGain(ranked, alpha)
	idcg := cumulativeDiscountedGain(ideal, alpha)
	n := len(ranked)
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		d := dcg[k]
		var i float64
		if k < len(idcg) {
			i = idcg[k]
		} else if len(idcg) > 0 {
			i = idcg[len(idcg)-1]
		}
		if i > 0 {
			out[k] = d / i
			if out[k] > 1 {
				out[k] = 1
			}
		}
	}
	return out
}

// gains computes the overlap-penalised gain of each rank (Equation 4.5).
func gains(ranked []Item, alpha float64) []float64 {
	seen := make(map[string]int) // nugget -> number of earlier items containing it
	out := make([]float64, len(ranked))
	for k, item := range ranked {
		r := 0
		uniq := uniqueNuggets(item.Nuggets)
		for _, n := range uniq {
			r += seen[n]
		}
		out[k] = item.Relevance * math.Pow(1-alpha, float64(r))
		for _, n := range uniq {
			seen[n]++
		}
	}
	return out
}

// cumulativeDiscountedGain accumulates the log-discounted gains.
func cumulativeDiscountedGain(ranked []Item, alpha float64) []float64 {
	g := gains(ranked, alpha)
	out := make([]float64, len(g))
	sum := 0.0
	for k := range g {
		sum += g[k] / math.Log2(float64(k)+2)
		out[k] = sum
	}
	return out
}

// IdealOrder returns the items sorted by descending relevance — the
// normalisation ranking of Section 4.6.3. Ties keep input order.
func IdealOrder(items []Item) []Item {
	out := make([]Item, len(items))
	copy(out, items)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Relevance > out[j].Relevance })
	return out
}

// WSRecall computes WS-recall@k for every k per Equation 4.7: the
// aggregated relevance of the subtopics (nuggets) covered by the top-k
// items over the aggregated relevance of all relevant subtopics in the
// universe. The relevance of a nugget is the maximum relevance of any
// universe item returning it (Section 4.6.4).
func WSRecall(ranked, universe []Item) []float64 {
	nuggetRel := NuggetRelevance(universe)
	total := 0.0
	for _, r := range nuggetRel {
		total += r
	}
	out := make([]float64, len(ranked))
	covered := make(map[string]bool)
	sum := 0.0
	for k, item := range ranked {
		for _, n := range uniqueNuggets(item.Nuggets) {
			if !covered[n] {
				covered[n] = true
				sum += nuggetRel[n]
			}
		}
		if total > 0 {
			out[k] = sum / total
		}
	}
	return out
}

// NuggetRelevance computes the per-nugget graded relevance: the maximum
// relevance over the universe items containing the nugget.
func NuggetRelevance(universe []Item) map[string]float64 {
	out := make(map[string]float64)
	for _, item := range universe {
		for _, n := range item.Nuggets {
			if item.Relevance > out[n] {
				out[n] = item.Relevance
			}
		}
	}
	return out
}

func uniqueNuggets(ns []string) []string {
	seen := make(map[string]bool, len(ns))
	var out []string
	for _, n := range ns {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// BoxStats is the five-number summary behind the boxplots of Figure 3.6.
type BoxStats struct {
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
	N                        int
}

// Summarize computes the five-number summary of the sample. Quartiles use
// linear interpolation between order statistics.
func Summarize(sample []float64) BoxStats {
	n := len(sample)
	if n == 0 {
		return BoxStats{}
	}
	s := make([]float64, n)
	copy(s, sample)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return BoxStats{
		Min:    s[0],
		Q1:     Percentile(s, 25),
		Median: Percentile(s, 50),
		Q3:     Percentile(s, 75),
		Max:    s[n-1],
		Mean:   sum / float64(n),
		N:      n,
	}
}

// Percentile returns the p-th percentile (0..100) of an ascending-sorted
// sample, with linear interpolation.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median is a convenience over Summarize for a single statistic.
func Median(sample []float64) float64 {
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	return Percentile(s, 50)
}

// Mean returns the arithmetic mean (0 for empty samples).
func Mean(sample []float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range sample {
		sum += v
	}
	return sum / float64(len(sample))
}
