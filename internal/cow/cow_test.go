package cow

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
)

// TestLineagesStayIsolated drives a growing family of Maps — each cloned
// from a random earlier member, every member written after it was
// cloned and after it cloned others — against plain-map models: no
// write may ever show through a shared shard.
func TestLineagesStayIsolated(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	family := []*Map[int]{New[int]()}
	models := []map[string]int{{}}
	for step := 0; step < 4000; step++ {
		i := rng.Intn(len(family))
		key := fmt.Sprintf("k%d", rng.Intn(300))
		switch op := rng.Intn(10); {
		case op == 0 && len(family) < 12:
			family = append(family, family[i].Clone())
			models = append(models, maps.Clone(models[i]))
		case op < 3:
			delete(family[i].Edit(key), key)
			delete(models[i], key)
		default:
			family[i].Edit(key)[key] = step
			models[i][key] = step
		}
	}
	for i, m := range family {
		if m.Len() != len(models[i]) {
			t.Fatalf("member %d: Len %d, model %d", i, m.Len(), len(models[i]))
		}
		if got := maps.Collect(m.All()); !maps.Equal(got, models[i]) {
			t.Fatalf("member %d: contents diverged from its model", i)
		}
		for k, v := range models[i] {
			if m.Get(k) != v {
				t.Fatalf("member %d: Get(%q) = %d, want %d", i, k, m.Get(k), v)
			}
			if got, ok := m.Lookup(k); !ok || got != v {
				t.Fatalf("member %d: Lookup(%q) = %d, %v, want %d, true", i, k, got, ok, v)
			}
		}
		if _, ok := m.Lookup("absent"); ok {
			t.Fatalf("member %d: Lookup of an absent key reports present", i)
		}
	}
}

// TestPatchCopiesOneShard: the point of the structure — a write to a
// clone copies the shard it lands in and nothing else.
func TestPatchCopiesOneShard(t *testing.T) {
	m := New[int]()
	for i := 0; i < 64*shards; i++ {
		k := fmt.Sprintf("k%d", i)
		m.Edit(k)[k] = i
	}
	c := m.Clone()
	c.Edit("k7")["k7"] = -1
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
		t.Fatalf("one write copied %d of %d shards", copied, shards)
	}
	if m.Get("k7") != 7 || c.Get("k7") != -1 {
		t.Fatalf("source sees %d, clone sees %d", m.Get("k7"), c.Get("k7"))
	}
}

// TestAllStopsEarly: All honours a break out of the range loop.
func TestAllStopsEarly(t *testing.T) {
	m := New[int]()
	for i := 0; i < 100; i++ {
		k := fmt.Sprint(i)
		m.Edit(k)[k] = i
	}
	n := 0
	for range m.All() {
		if n++; n == 3 {
			break
		}
	}
	if n != 3 {
		t.Fatalf("iterated %d entries after break at 3", n)
	}
}
