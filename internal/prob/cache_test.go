package prob

import (
	"slices"
	"testing"

	"repro/internal/invindex"
	"repro/internal/relstore"
)

// rankAll ranks the complete interpretation space of each query.
func rankAll(t *testing.T, f *fixture, ix *invindex.Index, m *Model, queries [][]string) [][]Scored {
	out := make([][]Scored, len(queries))
	for i, q := range queries {
		out[i] = rank(t, m, f.space(t, ix, q...))
	}
	return out
}

func entries(scores *attrScores) int {
	n := 0
	count := func(_, _ any) bool { n++; return true }
	scores.kw.Range(count)
	scores.joint.Range(count)
	return n
}

// TestInheritCacheSharesCleanAttributes: after a batch that touches only
// actor.name, the successor model starts that attribute cold, shares the
// template priors and every other attribute's sub-cache with its
// predecessor by pointer, and scores bit-identically to a model built
// cold over the new index.
func TestInheritCacheSharesCleanAttributes(t *testing.T) {
	f := newFixture(t)
	cfg := Config{UseCoOccurrence: true}
	queries := [][]string{{"tom", "hanks"}, {"the", "terminal"}, {"hanks", "2004"}, {"actor", "big"}}
	oldM := New(f.ix, f.cat, cfg)
	rankAll(t, f, f.ix, oldM, queries) // warm every sub-cache

	ndb, changes, err := f.db.Apply([]relstore.Mutation{
		{Op: relstore.OpInsert, Table: "actor", Values: []string{"a4", "Hanks Hanks Hanks"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	nix := f.ix.Apply(ndb, changes)
	newM := New(nix, f.cat, cfg)
	dirty := invindex.AttrRef{Table: "actor", Column: "name"}
	newM.InheritCache(oldM, relstore.ChangedAttrs(ndb, changes))

	if newM.cache.prior != oldM.cache.prior {
		t.Error("template priors must be shared by pointer")
	}
	for a, scores := range newM.cache.attrs {
		shared := scores == oldM.cache.attrs[a]
		switch {
		case a == dirty && (shared || entries(scores) != 0):
			t.Errorf("%s is stale: want a fresh, empty sub-cache", a)
		case a != dirty && !shared:
			t.Errorf("%s is clean: want the predecessor's sub-cache by pointer", a)
		}
	}
	if entries(oldM.cache.attrs[dirty]) == 0 || entries(oldM.cache.attrs[invindex.AttrRef{Table: "movie", Column: "title"}]) == 0 {
		t.Fatal("warm-up left the sub-caches under test empty")
	}

	// The insert moved actor.name's statistics, so a wrongly inherited
	// entry would show as a score difference here.
	cold := New(nix, f.cat, Config{UseCoOccurrence: true, DisableScoreCache: true})
	got, want := rankAll(t, f, nix, newM, queries), rankAll(t, f, nix, cold, queries)
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("query %v: %d interpretations, want %d", queries[i], len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j].Score != want[i][j].Score || got[i][j].Q.Key() != want[i][j].Q.Key() {
				t.Fatalf("query %v rank %d: inherited %v (%v), cold %v (%v)", queries[i], j,
					got[i][j].Q.Key(), got[i][j].Score, want[i][j].Q.Key(), want[i][j].Score)
			}
		}
	}
	stale := rankAll(t, f, f.ix, oldM, queries)
	same := true
	for j := range want[0] {
		same = same && j < len(stale[0]) && stale[0][j].Score == want[0][j].Score
	}
	if same {
		t.Fatal("the batch did not move any score of \"tom hanks\": the test cannot see a stale entry")
	}
}

// TestInheritCacheKeepsAllOnNonIndexedUpdate: an update that changes
// only a column the index does not cover (an actor's key) stales that
// column alone, so the successor shares every score sub-cache.
func TestInheritCacheKeepsAllOnNonIndexedUpdate(t *testing.T) {
	f := newFixture(t)
	oldM := New(f.ix, f.cat, Config{UseCoOccurrence: true})
	rankAll(t, f, f.ix, oldM, [][]string{{"tom", "hanks"}})
	ndb, changes, err := f.db.Apply([]relstore.Mutation{
		{Op: relstore.OpUpdate, Table: "actor", Key: "a3", Values: []string{"a9", "Tom Cruise"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	stale := relstore.ChangedAttrs(ndb, changes)
	if want := []relstore.Attr{{Table: "actor", Col: 0}}; !slices.Equal(stale, want) {
		t.Fatalf("changed attributes %v, want %v", stale, want)
	}
	newM := New(f.ix.Apply(ndb, changes), f.cat, Config{UseCoOccurrence: true})
	newM.InheritCache(oldM, stale)
	for a, scores := range newM.cache.attrs {
		if scores != oldM.cache.attrs[a] {
			t.Errorf("%s: want the predecessor's sub-cache by pointer", a)
		}
	}
}

// TestInheritCacheDisabled: no-ops cleanly when either side has no cache.
func TestInheritCacheDisabled(t *testing.T) {
	withCache := &Model{cache: newScoreCache(nil)}
	without := &Model{}
	without.InheritCache(withCache, nil)
	withCache.InheritCache(without, nil)
	withCache.InheritCache(nil, nil)
}
