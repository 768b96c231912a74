package relstore

import (
	"hash/maphash"
	"iter"
	"maps"
)

// cowShards is the number of shards of a cowMap: the factor by which a
// copy-on-write patch is cheaper than cloning the whole map.
const cowShards = 64

var cowSeed = maphash.MakeSeed()

// cowMap is a string-keyed map split into hash shards, so that the
// copy-on-write successor of a table (mutableCopy) costs O(shards) to
// create and O(entries/shards) per shard a batch writes — not O(entries),
// which made a one-row insert pay for every value and token of its
// table. A clone shares every shard with its source; either side copies
// a shard the first time it writes to it, so neither ever sees the
// other's writes. Reads take one extra string hash. Empty shards stay
// nil.
type cowMap[V any] struct {
	shards [cowShards]map[string]V
	// owned has bit s set when shards[s] is private to this map and may
	// be written in place.
	owned uint64
}

func newCowMap[V any]() *cowMap[V] { return &cowMap[V]{owned: ^uint64(0)} }

func cowShard(key string) uint { return uint(maphash.String(cowSeed, key) % cowShards) }

// get returns the value stored under key, or the zero value.
func (m *cowMap[V]) get(key string) V { return m.shards[cowShard(key)][key] }

// edit returns the shard holding key, private to m and ready to be
// written with ordinary map operations.
func (m *cowMap[V]) edit(key string) map[string]V {
	s := cowShard(key)
	switch {
	case m.shards[s] == nil:
		m.shards[s] = make(map[string]V)
	case m.owned&(1<<s) == 0:
		m.shards[s] = maps.Clone(m.shards[s])
	}
	m.owned |= 1 << s
	return m.shards[s]
}

// clone returns a map with m's contents that shares m's shards. It only
// touches m's ownership word, never its shards, so it is safe while
// other goroutines read m.
func (m *cowMap[V]) clone() *cowMap[V] {
	m.owned = 0
	return &cowMap[V]{shards: m.shards}
}

func (m *cowMap[V]) len() int {
	n := 0
	for _, sh := range m.shards {
		n += len(sh)
	}
	return n
}

// all iterates every entry, in no particular order.
func (m *cowMap[V]) all() iter.Seq2[string, V] {
	return func(yield func(string, V) bool) {
		for _, sh := range m.shards {
			for k, v := range sh {
				if !yield(k, v) {
					return
				}
			}
		}
	}
}
