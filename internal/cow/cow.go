// Package cow provides Map, the one copy-on-write string-keyed map that
// every snapshot-versioned index of the engine is built on: relstore's
// equality indexes and token postings, and invindex's term postings and
// per-attribute term statistics. A mutation batch clones the maps it
// patches in O(shards) and copies only the shards it writes, so the
// cost of publishing a successor snapshot is proportional to the batch,
// not to the number of keys.
package cow

import (
	"hash/maphash"
	"iter"
	"maps"
)

// shards is the number of hash shards of a Map: the factor by which a
// copy-on-write patch is cheaper than cloning the whole map. It is also
// the width of the ownership word.
const shards = 64

var seed = maphash.MakeSeed()

// Map is a string-keyed map split into hash shards. A Clone shares every
// shard with its source; either side copies a shard the first time it
// writes to it, so neither ever sees the other's writes. Reads take one
// extra string hash. Empty shards stay nil.
//
// Reads are safe for concurrent use. Writes (Edit, and Clone, which
// writes the source's ownership word) need one writer at a time — the
// engine's serialised Apply — but may run while other goroutines read.
type Map[V any] struct {
	shards [shards]map[string]V
	// owned has bit s set when shards[s] is private to this map and may
	// be written in place.
	owned uint64
}

// New returns an empty map that owns all of its (not yet allocated)
// shards.
func New[V any]() *Map[V] { return &Map[V]{owned: ^uint64(0)} }

func shard(key string) uint { return uint(maphash.String(seed, key) % shards) }

// Get returns the value stored under key, or the zero value.
func (m *Map[V]) Get(key string) V { return m.shards[shard(key)][key] }

// Lookup returns the value stored under key and whether it is present.
func (m *Map[V]) Lookup(key string) (V, bool) {
	v, ok := m.shards[shard(key)][key]
	return v, ok
}

// Edit returns the shard holding key, private to m and ready to be
// written with ordinary map operations (assignment, delete, increment).
// Only key, or keys of the same shard, may be written through it.
func (m *Map[V]) Edit(key string) map[string]V {
	s := shard(key)
	switch {
	case m.shards[s] == nil:
		m.shards[s] = make(map[string]V)
	case m.owned&(1<<s) == 0:
		m.shards[s] = maps.Clone(m.shards[s])
	}
	m.owned |= 1 << s
	return m.shards[s]
}

// Clone returns a map with m's contents that shares m's shards. It only
// touches m's ownership word, never its shards, so it is safe while
// other goroutines read m.
func (m *Map[V]) Clone() *Map[V] {
	m.owned = 0
	return &Map[V]{shards: m.shards}
}

// Len returns the number of entries, in O(shards).
func (m *Map[V]) Len() int {
	n := 0
	for _, sh := range m.shards {
		n += len(sh)
	}
	return n
}

// All iterates every entry, in no particular order.
func (m *Map[V]) All() iter.Seq2[string, V] {
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
