package invindex

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// checkDictionary asserts d holds exactly the ascending model, in
// non-empty chunks of at most 2*dictChunk terms, and answers prefix
// lookups like a scan of the model.
func checkDictionary(t *testing.T, d dictionary, model []string, rng *rand.Rand) {
	t.Helper()
	if got := d.withPrefix("", 0); !slices.Equal(got, model) {
		t.Fatalf("dictionary holds %d terms, model %d", len(got), len(model))
	}
	for i, c := range d.chunks {
		if len(c) == 0 || len(c) > 2*dictChunk {
			t.Fatalf("chunk %d has %d terms", i, len(c))
		}
	}
	for probe := 0; probe < 20; probe++ {
		prefix := ""
		if len(model) > 0 && probe > 0 {
			w := model[rng.Intn(len(model))]
			prefix = w[:rng.Intn(len(w)+1)]
		}
		limit := rng.Intn(4) * 3
		var want []string
		for _, w := range model {
			if strings.HasPrefix(w, prefix) && (limit == 0 || len(want) < limit) {
				want = append(want, w)
			}
		}
		if got := d.withPrefix(prefix, limit); !slices.Equal(got, want) {
			t.Fatalf("withPrefix(%q, %d) = %v, want %v", prefix, limit, got, want)
		}
	}
}

// TestDictionaryPatched drives a lineage of patched dictionaries with
// batches small and large — enough to split chunks past 2*dictChunk and
// to empty and drop them — against a sorted-slice model, and checks
// every earlier version is unchanged by its successors.
func TestDictionaryPatched(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	present := map[string]bool{}
	var versions []dictionary
	var models [][]string
	d := newDictionary(nil)
	for step := 0; step < 60; step++ {
		var added, removed []string
		for n := rng.Intn([]int{3, 40, 700}[step%3]); n > 0; n-- {
			w := fmt.Sprintf("t%04d", rng.Intn(3000))
			if step%7 == 6 {
				w = fmt.Sprintf("t%04d", 1000+rng.Intn(200)) // crowd one region
			}
			switch {
			case present[w] && rng.Intn(2) == 0 && !slices.Contains(added, w):
				if !slices.Contains(removed, w) {
					removed = append(removed, w)
				}
			case !present[w] && !slices.Contains(added, w):
				added = append(added, w)
			}
		}
		for _, w := range added {
			present[w] = true
		}
		for _, w := range removed {
			delete(present, w)
		}
		sort.Strings(added)
		sort.Strings(removed)
		d = d.patched(added, removed)
		model := make([]string, 0, len(present))
		for w := range present {
			model = append(model, w)
		}
		sort.Strings(model)
		checkDictionary(t, d, model, rng)
		versions, models = append(versions, d), append(models, model)
	}
	for i, v := range versions {
		checkDictionary(t, v, models[i], rng)
	}
	// Removing everything leaves an empty dictionary that still patches.
	all := slices.Clone(models[len(models)-1])
	d = d.patched(nil, all)
	checkDictionary(t, d, nil, rng)
	checkDictionary(t, d.patched([]string{"x"}, nil), []string{"x"}, rng)
}

// TestDictionaryPatchSharesUntouchedChunks: a one-term patch copies the
// one chunk the term lands in and shares every other chunk.
func TestDictionaryPatchSharesUntouchedChunks(t *testing.T) {
	var terms []string
	for i := 0; i < 5*dictChunk; i++ {
		terms = append(terms, fmt.Sprintf("t%05d", 2*i))
	}
	d := newDictionary(terms)
	nd := d.patched([]string{fmt.Sprintf("t%05d", 2*dictChunk+1)}, nil)
	if len(nd.chunks) != len(d.chunks) {
		t.Fatalf("%d chunks after a one-term patch, had %d", len(nd.chunks), len(d.chunks))
	}
	for i := range d.chunks {
		shared := &nd.chunks[i][0] == &d.chunks[i][0]
		if shared == (i == 1) {
			t.Errorf("chunk %d: shared %v", i, shared)
		}
	}
}
