package relstore

import (
	"sort"
	"strings"
)

// SelectionCache memoises keyword-containment selections across the plans
// of one request. A top-k request executes dozens of candidate networks,
// and the same (table, column, keyword-bag) selection recurs in most of
// them — e.g. every network binding "hanks" to actor.name repeats the
// σ_{hanks ∈ name}(actor) selection. The cache computes each distinct
// selection once and shares the resulting row list.
//
// Keys are (table, column position, canonical keyword bag), where the bag
// is canonicalised by CanonicalBag so permutations of the same bag share
// one entry. Values are the ascending RowID lists produced by the posting
// machinery; they are shared between plans and with the posting lists
// themselves, so callers must treat them as read-only.
//
// The cache is scoped to a single request and is not safe for concurrent
// use: the plans of one request execute one at a time on one goroutine.
// Create one per Search / TopKContext call and drop it
// afterwards. Because the underlying data is immutable after Build, a
// cached selection can never go stale within a request, so caching
// changes how results are computed, never which results are produced.
//
// A cache created with NewSelectionCacheShared additionally consults an
// engine-lifetime SharedStore (repro/internal/qcache) on local misses and
// publishes freshly computed selections and whole-plan results back to
// it, promoting hot work across requests. The shared layer validates
// every entry against the mutation history (see SharedStore), so sharing
// never changes results either.
type SelectionCache struct {
	m      map[selectionKey][]int
	shared SharedStore
}

// selectionKey identifies one memoised selection within a request. The
// table is keyed by pointer — all plans of one request resolve tables
// from the same snapshot — while the shared engine-lifetime layer keys by
// table name and validates against the mutation history instead.
type selectionKey struct {
	t   *Table
	col int
	bag string
}

// NewSelectionCache creates an empty selection cache.
func NewSelectionCache() *SelectionCache {
	return &SelectionCache{m: make(map[selectionKey][]int)}
}

// NewSelectionCacheShared creates a selection cache backed by an
// engine-lifetime shared store. A nil shared store yields a plain
// per-request cache.
func NewSelectionCacheShared(shared SharedStore) *SelectionCache {
	return &SelectionCache{m: make(map[selectionKey][]int), shared: shared}
}

// CanonicalBag canonicalises a keyword bag: lower-cased, sorted,
// NUL-joined. It is the one canonical key form shared by the per-request
// SelectionCache and the engine-lifetime answer cache, so the two layers
// can never disagree on whether two bags are the same selection.
func CanonicalBag(keywords []string) string {
	if len(keywords) == 0 {
		return ""
	}
	if len(keywords) == 1 {
		return strings.ToLower(keywords[0])
	}
	lowered := make([]string, len(keywords))
	for i, k := range keywords {
		lowered[i] = strings.ToLower(k)
	}
	sort.Strings(lowered)
	return strings.Join(lowered, "\x00")
}

// selection returns the memoised bag-containment selection of a
// non-empty bag over the table's column, computing it via the posting
// lists on first use. The returned slice is shared and read-only. A nil
// cache is valid and simply computes the selection directly.
func (c *SelectionCache) selection(t *Table, ci int, keywords []string) []int {
	if c == nil {
		return t.selectPostings(ci, keywords)
	}
	key := selectionKey{t: t, col: ci, bag: CanonicalBag(keywords)}
	if rows, ok := c.m[key]; ok {
		return rows
	}
	if c.shared != nil {
		if rows, ok := c.shared.GetSelection(t.Schema.Name, ci, key.bag); ok {
			c.m[key] = rows
			return rows
		}
	}
	rows := t.selectPostings(ci, keywords)
	c.m[key] = rows
	if c.shared != nil {
		c.shared.PutSelection(t.Schema.Name, ci, key.bag, rows)
	}
	return rows
}
