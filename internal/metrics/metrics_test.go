package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestAlphaNDCGWPerfectRanking(t *testing.T) {
	items := []Item{
		{Relevance: 1.0, Nuggets: []string{"a"}},
		{Relevance: 0.5, Nuggets: []string{"b"}},
		{Relevance: 0.2, Nuggets: []string{"c"}},
	}
	got := AlphaNDCGW(items, IdealOrder(items), 0.5)
	for k, v := range got {
		if !approx(v, 1) {
			t.Fatalf("perfect distinct ranking must score 1 at k=%d, got %v", k, v)
		}
	}
}

func TestAlphaNDCGWPenalisesOverlap(t *testing.T) {
	// Two orderings of the same items; the second item of "redundant"
	// returns the same nugget as the first.
	redundant := []Item{
		{Relevance: 1.0, Nuggets: []string{"a"}},
		{Relevance: 0.9, Nuggets: []string{"a"}},
		{Relevance: 0.8, Nuggets: []string{"b"}},
	}
	diverse := []Item{
		{Relevance: 1.0, Nuggets: []string{"a"}},
		{Relevance: 0.8, Nuggets: []string{"b"}},
		{Relevance: 0.9, Nuggets: []string{"a"}},
	}
	// Compare raw cumulative discounted gains: the normalised values can
	// both saturate at 1 because the relevance-ordered ideal is itself
	// redundant under high alpha.
	r := cumulativeDiscountedGain(redundant, 0.99)
	d := cumulativeDiscountedGain(diverse, 0.99)
	if d[1] <= r[1] {
		t.Fatalf("diverse ordering must win at k=2 under high alpha: %v vs %v", d[1], r[1])
	}
	// And the normalised values stay within [0,1].
	for _, v := range AlphaNDCGW(diverse, IdealOrder(redundant), 0.99) {
		if v < 0 || v > 1 {
			t.Fatalf("normalised value out of range: %v", v)
		}
	}
}

func TestAlphaNDCGWMultiCountOverlap(t *testing.T) {
	// An item whose nuggets were seen twice before is discounted twice.
	ranked := []Item{
		{Relevance: 1, Nuggets: []string{"a"}},
		{Relevance: 1, Nuggets: []string{"a"}},
		{Relevance: 1, Nuggets: []string{"a"}},
	}
	g := gains(ranked, 0.5)
	if !approx(g[0], 1) || !approx(g[1], 0.5) || !approx(g[2], 0.25) {
		t.Fatalf("gains = %v, want [1 0.5 0.25]", g)
	}
	// Duplicate nuggets within one item count once.
	ranked2 := []Item{
		{Relevance: 1, Nuggets: []string{"a", "a"}},
		{Relevance: 1, Nuggets: []string{"a"}},
	}
	g2 := gains(ranked2, 0.5)
	if !approx(g2[1], 0.5) {
		t.Fatalf("duplicate nugget in one item should count once: %v", g2)
	}
}

func TestAlphaNDCGWBounds(t *testing.T) {
	f := func(rels []float64) bool {
		items := make([]Item, 0, len(rels))
		for i, r := range rels {
			r = math.Abs(r)
			if math.IsNaN(r) || math.IsInf(r, 0) {
				r = 1
			}
			items = append(items, Item{
				Relevance: r / (1 + r), // bounded graded relevance in [0,1)
				Nuggets:   []string{string(rune('a' + i%5))},
			})
		}
		for _, alpha := range []float64{0, 0.5, 0.99} {
			for _, v := range AlphaNDCGW(items, IdealOrder(items), alpha) {
				if v < 0 || v > 1+1e-9 || math.IsNaN(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWSRecall(t *testing.T) {
	universe := []Item{
		{Relevance: 1.0, Nuggets: []string{"a", "b"}},
		{Relevance: 0.5, Nuggets: []string{"b", "c"}},
		{Relevance: 0.2, Nuggets: []string{"d"}},
	}
	// Nugget relevances: a=1, b=1 (max), c=0.5, d=0.2; total=2.7.
	ranked := []Item{universe[0], universe[2]}
	ws := WSRecall(ranked, universe)
	if !approx(ws[0], 2.0/2.7) {
		t.Fatalf("WS@1 = %v, want %v", ws[0], 2.0/2.7)
	}
	if !approx(ws[1], 2.2/2.7) {
		t.Fatalf("WS@2 = %v, want %v", ws[1], 2.2/2.7)
	}
}

func TestWSRecallMonotone(t *testing.T) {
	f := func(seed uint8) bool {
		// Build a deterministic pseudo-random universe from the seed.
		n := int(seed%7) + 2
		universe := make([]Item, n)
		for i := range universe {
			universe[i] = Item{
				Relevance: float64((int(seed)+i*13)%10) / 10,
				Nuggets:   []string{string(rune('a' + (i*int(seed+1))%6))},
			}
		}
		ws := WSRecall(universe, universe)
		for k := 1; k < len(ws); k++ {
			if ws[k] < ws[k-1]-1e-12 {
				return false
			}
		}
		return len(ws) == 0 || ws[len(ws)-1] <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWSRecallReducesToSRecall(t *testing.T) {
	// With binary relevance 1, WS-recall equals S-recall (Section 4.5.2).
	universe := []Item{
		{Relevance: 1, Nuggets: []string{"a"}},
		{Relevance: 1, Nuggets: []string{"b", "c"}},
		{Relevance: 1, Nuggets: []string{"c"}},
	}
	ws := WSRecall(universe, universe)
	s := SRecall(universe, universe)
	for k := range ws {
		if !approx(ws[k], s[k]) {
			t.Fatalf("binary WS-recall != S-recall at k=%d: %v vs %v", k, ws[k], s[k])
		}
	}
}

// SRecall is the binary instance recall at k: the fraction of distinct
// nuggets of the universe covered by the top-k items (Section 4.5.2's
// unweighted special case).
func SRecall(ranked, universe []Item) []float64 {
	all := make(map[string]bool)
	for _, item := range universe {
		for _, n := range item.Nuggets {
			all[n] = true
		}
	}
	out := make([]float64, len(ranked))
	covered := make(map[string]bool)
	for k, item := range ranked {
		for _, n := range item.Nuggets {
			if all[n] {
				covered[n] = true
			}
		}
		if len(all) > 0 {
			out[k] = float64(len(covered)) / float64(len(all))
		}
	}
	return out
}

func TestSRecall(t *testing.T) {
	universe := []Item{
		{Relevance: 1, Nuggets: []string{"a"}},
		{Relevance: 1, Nuggets: []string{"b"}},
	}
	ranked := []Item{universe[0]}
	s := SRecall(ranked, universe)
	if !approx(s[0], 0.5) {
		t.Fatalf("S@1 = %v", s[0])
	}
	// Unknown nuggets in ranked items are ignored.
	s = SRecall([]Item{{Nuggets: []string{"zzz"}}}, universe)
	if !approx(s[0], 0) {
		t.Fatalf("unknown nugget contributed: %v", s[0])
	}
}

func TestNuggetRelevance(t *testing.T) {
	universe := []Item{
		{Relevance: 0.3, Nuggets: []string{"a"}},
		{Relevance: 0.9, Nuggets: []string{"a", "b"}},
	}
	rel := NuggetRelevance(universe)
	if !approx(rel["a"], 0.9) || !approx(rel["b"], 0.9) {
		t.Fatalf("NuggetRelevance = %v", rel)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Min != 1 || s.Max != 5 || !approx(s.Median, 3) || !approx(s.Mean, 3) || s.N != 5 {
		t.Fatalf("Summarize = %+v", s)
	}
	if !approx(s.Q1, 2) || !approx(s.Q3, 4) {
		t.Fatalf("quartiles = %v %v", s.Q1, s.Q3)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Fatalf("empty Summarize = %+v", empty)
	}
	one := Summarize([]float64{7})
	if one.Min != 7 || one.Max != 7 || !approx(one.Median, 7) {
		t.Fatalf("singleton Summarize = %+v", one)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	s := []float64{0, 10}
	if !approx(Percentile(s, 25), 2.5) {
		t.Fatalf("P25 = %v", Percentile(s, 25))
	}
	if !approx(Percentile(s, 0), 0) || !approx(Percentile(s, 100), 10) {
		t.Fatal("extremes wrong")
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	if !approx(Median(in), 2) {
		t.Fatalf("Median = %v", Median(in))
	}
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("Median mutated input")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil)")
	}
	if !approx(Mean([]float64{1, 2, 3}), 2) {
		t.Fatal("Mean wrong")
	}
}

func TestIdealOrderStable(t *testing.T) {
	items := []Item{
		{Relevance: 0.5, Nuggets: []string{"a"}},
		{Relevance: 0.5, Nuggets: []string{"b"}},
		{Relevance: 0.9, Nuggets: []string{"c"}},
	}
	ideal := IdealOrder(items)
	if ideal[0].Nuggets[0] != "c" || ideal[1].Nuggets[0] != "a" || ideal[2].Nuggets[0] != "b" {
		t.Fatalf("IdealOrder = %v", ideal)
	}
	// Input untouched.
	if items[0].Relevance != 0.5 || items[2].Relevance != 0.9 {
		t.Fatal("IdealOrder mutated input")
	}
}
