package relstore

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
)

// TestCowMapLineagesStayIsolated drives a growing family of cowMaps —
// each cloned from a random earlier member, every member written after
// it was cloned and after it cloned others — against plain-map models:
// no write may ever show through a shared shard.
func TestCowMapLineagesStayIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	family := []*cowMap[int]{newCowMap[int]()}
	models := []map[string]int{{}}
	for step := 0; step < 4000; step++ {
		i := rng.Intn(len(family))
		key := fmt.Sprintf("k%d", rng.Intn(300))
		switch op := rng.Intn(10); {
		case op == 0 && len(family) < 12:
			family = append(family, family[i].clone())
			models = append(models, maps.Clone(models[i]))
		case op < 3:
			delete(family[i].edit(key), key)
			delete(models[i], key)
		default:
			family[i].edit(key)[key] = step
			models[i][key] = step
		}
	}
	for i, m := range family {
		if m.len() != len(models[i]) {
			t.Fatalf("member %d: len %d, model %d", i, m.len(), len(models[i]))
		}
		if got := maps.Collect(m.all()); !maps.Equal(got, models[i]) {
			t.Fatalf("member %d: contents diverged from its model", i)
		}
		for k, v := range models[i] {
			if m.get(k) != v {
				t.Fatalf("member %d: get(%q) = %d, want %d", i, k, m.get(k), v)
			}
		}
	}
}

// TestCowMapPatchCopiesOneShard: the point of the structure — a write to
// a clone copies the shard it lands in and nothing else.
func TestCowMapPatchCopiesOneShard(t *testing.T) {
	m := newCowMap[int]()
	for i := 0; i < 64*cowShards; i++ {
		k := fmt.Sprintf("k%d", i)
		m.edit(k)[k] = i
	}
	c := m.clone()
	c.edit("k7")["k7"] = -1
	copied := 0
	for s := range c.shards {
		// Two maps are the same object iff a write to one shows in the other.
		probe := fmt.Sprintf("probe%d", s)
		c.shards[s][probe] = 1
		if _, shared := m.shards[s][probe]; !shared {
			copied++
		}
		delete(c.shards[s], probe)
	}
	if copied != 1 {
		t.Fatalf("one write copied %d of %d shards", copied, cowShards)
	}
	if m.get("k7") != 7 || c.get("k7") != -1 {
		t.Fatalf("source sees %d, clone sees %d", m.get("k7"), c.get("k7"))
	}
}
