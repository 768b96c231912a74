package relstore

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// This file implements compiled join plans: the execution-ready form of a
// candidate network. Compilation resolves every string-keyed lookup of
// the interpreted executor before execution — predicate column positions
// per plan; table pointers and each join edge's foreign-key adjacency in
// both directions (adjacency.go) once per plan shape and snapshot
// (shape.go) — so the recursive enumeration runs on
// integers and slices only: a join probe reads the probing row's partner
// ids and never its join value. Execution then proceeds in three phases:
//
//  1. proof: every constrained node's candidate set from the posting
//     lists (shared through the per-request SelectionCache when one is
//     supplied); when one is empty the plan has no result under any
//     limit and stops here, before the answer cache is consulted — many
//     interpretations of a keyword query die this way;
//  2. selection: the candidates of unconstrained nodes (their live
//     rows), then the root: the most selective node; and
//  3. enumeration: index nested loops from the root, exactly as the
//     reference executor, descending only into rows that can be
//     completed below — a semi-join reduction of the join tree evaluated
//     on demand and memoised per (node, row), so a plan costs what its
//     limit reaches rather than what its tables hold. A step whose long
//     candidate list is probed often answers membership from a bitmap.
//
// Skipping a row that cannot be completed never changes which joining
// trees exist, and candidate and index order are untouched, so the
// materialised JTT sequence is identical to the reference scan executor
// the tests keep (reference_test.go) — byte-for-byte, including under a
// result Limit.

// compiledPred is one keyword-containment predicate with its column
// resolved. col is -1 when the plan references an unknown column; such a
// predicate matches no row (the reference scan behaves identically).
type compiledPred struct {
	col      int
	keywords []string
}

// compiledNode is one join-plan node with its table resolved.
type compiledNode struct {
	table *Table
	preds []compiledPred
}

// compiledHalf is one direction of a join edge: this node's fromCol joins
// the neighbour node to's toCol, and adj lists each row's partners there.
type compiledHalf struct {
	to      int
	fromCol int
	adj     *adjacency
}

// CompiledPlan is an executable, pre-resolved join plan. Compile once,
// execute many times; a compiled plan is immutable and safe for
// concurrent Execute / CountRows calls.
type CompiledPlan struct {
	// Source is the plan this was compiled from.
	Source *JoinPlan

	db    *Database
	nodes []compiledNode
	adj   [][]compiledHalf // the skeleton's, shared read-only

	nodeBuf [inlineNodes]compiledNode
}

// Compile validates the plan and resolves it against the database: its
// tables and join adjacencies come from its skeleton (shape.go), so a
// plan made from a prepared shape resolves only its predicate columns.
// Every edge must join along a declared foreign key, in either
// direction; any other edge is an error.
func (db *Database) Compile(p *JoinPlan) (*CompiledPlan, error) {
	sk, err := db.skeleton(p)
	if err != nil {
		return nil, err
	}
	cp := &CompiledPlan{Source: p, db: db, adj: sk.adj}
	cp.nodes = cp.nodeBuf[:0]
	npreds := 0
	for i := range p.Nodes {
		npreds += len(p.Nodes[i].Predicates)
	}
	// The plan's predicates share one array; each node's slice is capped.
	preds := make([]compiledPred, npreds)
	for i, node := range p.Nodes {
		t, k := sk.tables[i], len(node.Predicates)
		for j, pred := range node.Predicates {
			preds[j] = compiledPred{col: t.Schema.ColumnIndex(pred.Column), keywords: pred.Keywords}
		}
		cp.nodes = append(cp.nodes, compiledNode{table: t, preds: preds[:k:k]})
		preds = preds[k:]
	}
	return cp, nil
}

// candidates computes the node's candidate rows: the intersection of its
// predicate selections, or all rows when unconstrained. Selections come
// from the posting lists, memoised per (table, column, bag) in the cache
// when one is supplied. The result is shared/read-only.
func (cp *CompiledPlan) candidates(i int, cache *SelectionCache) []int {
	node := &cp.nodes[i]
	if len(node.preds) == 0 {
		// Unconstrained: the empty bag selects every row; memoised under
		// column -1 so repeated plans over the same connector tables
		// share one identity slice.
		return cache.selection(node.table, -1, nil)
	}
	var out []int
	for j, pred := range node.preds {
		if pred.col < 0 {
			// Unknown predicate column: matches nothing, like the scan.
			return nil
		}
		sel := cache.selection(node.table, pred.col, pred.keywords)
		if len(sel) == 0 {
			return nil
		}
		if j == 0 {
			out = sel
		} else {
			out = intersectSorted(out, sel)
		}
		if len(out) == 0 {
			return nil
		}
	}
	return out
}

// Execute materialises the joining tuple trees of the compiled plan; see
// Database.Execute for the semantics.
func (cp *CompiledPlan) Execute(opts ExecuteOptions) ([]JTT, error) {
	results, _ := cp.run(opts.Cache, opts.Limit, true)
	return results, nil
}

// CountRows counts the plan's results without materialising them: the
// enumeration recursion increments a counter instead of copying row
// assignments, so counting allocates nothing per result. limit bounds the
// count (0 = unlimited).
func (cp *CompiledPlan) CountRows(limit int, cache *SelectionCache) (int, error) {
	_, n := cp.run(cache, limit, false)
	return n, nil
}

// cacheKey is the canonical identity of this plan's result stream in the
// engine-lifetime answer cache. Nodes contribute their table plus their
// predicates as sorted (column, canonical bag) pairs — predicate order
// never affects the output, so permutations share one entry — while
// edges are encoded verbatim: edge declaration order drives the DFS
// enumeration order and therefore the JTT sequence. The limit is part of
// the key because a truncated result stream is a different answer.
// Separator bytes sit below the bag joiner ("\x00" inside CanonicalBag
// output never delimits key fields). Persisted answer-cache sections are
// keyed by these bytes, so the encoding must never change.
func (cp *CompiledPlan) cacheKey(limit int) string {
	b := make([]byte, 0, 128)
	for i := range cp.nodes {
		node := &cp.nodes[i]
		b = append(b, '\x01')
		b = append(b, node.table.Schema.Name...)
		switch len(node.preds) {
		case 0:
			continue
		case 1:
			b = appendPredKey(append(b, '\x02'), node.preds[0])
			continue
		}
		// Several predicates: encode each after the key, order the
		// encodings bytewise, then move them into place.
		start := len(b)
		spans := make([][2]int, len(node.preds))
		for j, p := range node.preds {
			spans[j][0] = len(b)
			b = appendPredKey(b, p)
			spans[j][1] = len(b)
		}
		slices.SortFunc(spans, func(x, y [2]int) int {
			return bytes.Compare(b[x[0]:x[1]], b[y[0]:y[1]])
		})
		tail := len(b)
		for _, sp := range spans {
			b = append(b, '\x02')
			b = append(b, b[sp[0]:sp[1]]...)
		}
		b = append(b[:start], b[tail:]...)
	}
	b = append(b, '\x04')
	for _, e := range cp.Source.Edges {
		b = append(b, '\x02')
		b = strconv.AppendInt(b, int64(e.From), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(cp.joinCol(e.From, e.To)), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(e.To), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(cp.joinCol(e.To, e.From)), 10)
	}
	b = append(b, '\x05')
	b = strconv.AppendInt(b, int64(limit), 10)
	return string(b)
}

// appendPredKey appends one predicate's key field: its column position,
// then its keyword bag in CanonicalBag form.
func appendPredKey(b []byte, p compiledPred) []byte {
	b = strconv.AppendInt(b, int64(p.col), 10)
	b = append(b, '\x03')
	switch len(p.keywords) {
	case 0:
		return b
	case 1:
		return append(b, strings.ToLower(p.keywords[0])...)
	}
	var buf [inlineNodes]string
	bag := buf[:0]
	for _, k := range p.keywords {
		bag = append(bag, strings.ToLower(k))
	}
	slices.Sort(bag)
	for j, k := range bag {
		if j > 0 {
			b = append(b, '\x00')
		}
		b = append(b, k...)
	}
	return b
}

// joinCol is the column of node v's table that joins it to its tree
// neighbour w (a tree has at most one edge between two nodes).
func (cp *CompiledPlan) joinCol(v, w int) int {
	for _, he := range cp.adj[v] {
		if he.to == w {
			return he.fromCol
		}
	}
	return -1
}

// footprint is the set of attributes this plan's output is computed
// from: every resolved predicate column, every join column (both ends of
// every edge — the adjacencies enumeration walks are derived from join
// values), and the membership of
// unconstrained tables (their candidate set is "all live rows").
// Constrained nodes need no membership attribute: inserts and
// deletes stale every column, so their predicate columns already cover
// membership change. Unresolvable predicate columns contribute nothing —
// they force an empty result under any data.
func (cp *CompiledPlan) footprint() []Attr {
	n := 0
	for i := range cp.nodes {
		n += 1 + len(cp.nodes[i].preds) + len(cp.adj[i])
	}
	out := make([]Attr, 0, n)
	add := func(a Attr) {
		if !slices.Contains(out, a) {
			out = append(out, a)
		}
	}
	for i := range cp.nodes {
		node := &cp.nodes[i]
		name := node.table.Schema.Name
		if len(node.preds) == 0 {
			add(Attr{Table: name, Col: MembershipCol})
		}
		for _, p := range node.preds {
			if p.col >= 0 {
				add(Attr{Table: name, Col: p.col})
			}
		}
		for _, he := range cp.adj[i] {
			add(Attr{Table: name, Col: he.fromCol})
		}
	}
	sortAttrs(out)
	return out
}

// prove appends every node's candidate selection to sels — nil for an
// unconstrained node, whose live rows are only listed once enumeration
// needs them — and reports false as soon as a constrained node's is
// empty: such a plan has no result under any limit or data version the
// request sees, so it needs no answer-cache key, lookup or entry.
func (cp *CompiledPlan) prove(cache *SelectionCache, sels [][]int) ([][]int, bool) {
	for i := range cp.nodes {
		var c []int
		if len(cp.nodes[i].preds) > 0 {
			if c = cp.candidates(i, cache); len(c) == 0 {
				return nil, false
			}
		}
		sels = append(sels, c)
	}
	return sels, true
}

// run first tries to prove the plan empty from its selections, then
// consults the engine-lifetime answer cache (when the request's SelectionCache
// carries one) for the whole plan result before falling back to
// runCore, and publishes fresh results — including empty ones whose
// emptiness took join probes to find. Cached values are row-ID lists
// shared read-only across requests; the store guarantees they are valid
// for this request's snapshot (see SharedStore).
func (cp *CompiledPlan) run(cache *SelectionCache, limit int, collect bool) ([]JTT, int) {
	var buf [inlineNodes][]int
	sels, ok := cp.prove(cache, buf[:0])
	if !ok {
		return nil, 0
	}
	if cache == nil || cache.shared == nil {
		return cp.runCore(sels, cache, limit, collect)
	}
	key := cp.cacheKey(limit)
	if !collect {
		if n, ok := cache.shared.GetCount(key); ok {
			return nil, n
		}
		_, n := cp.runCore(sels, cache, limit, false)
		cache.shared.PutCount(key, cp.footprint(), n)
		return nil, n
	}
	if rows, ok := cache.shared.GetPlan(key); ok {
		if len(rows) == 0 {
			return nil, 0
		}
		results := make([]JTT, len(rows))
		for i, r := range rows {
			results[i] = JTT{Rows: r}
		}
		return results, len(rows)
	}
	results, count := cp.runCore(sels, cache, limit, true)
	rows := make([][]int, len(results))
	for i := range results {
		rows[i] = results[i].Rows
	}
	cache.shared.PutPlan(key, cp.footprint(), rows)
	return results, count
}

// step is one node of the DFS enumeration order with everything the
// enumeration reads about it resolved. kid/sib thread the step's child
// steps (first child, next sibling; -1 = none).
type step struct {
	node, parent int
	kid, sib     int
	table        *Table
	// cands is the node's ascending selection; nil for an unconstrained
	// node, whose candidates are the table's live rows.
	cands []int
	// adj maps a row of the parent's table to this node's partner rows,
	// ascending — the order of the equality index on the join column.
	adj *adjacency
	// memo is the word offset of this step's viability memo in
	// planRun.memo, or -1 when the step keeps none: leaves have nothing
	// below them and each root candidate is visited once anyway.
	memo int
	// bits is the word offset of this step's candidate bitmap in
	// planRun.bits once it is built, else -1: membership then
	// binary-searches cands.
	bits int
	// searches counts down the binary searches left before the bitmap
	// is built; 0 means it never is — the root is never probed, and a
	// short list searches as fast as a bitmap is built.
	searches int
}

// A probed step's membership moves from binary search to a bitmap once
// it has searched len(cands)>>bitmapShift times, so a step probed only
// a few times never pays the O(len(cands)) build and clear, and one
// probed often stops paying log(len(cands)) per probe. Lists of at most
// bitmapMin candidates always search.
const (
	bitmapMin   = 16
	bitmapShift = 4
)

// member reports whether the row is a candidate of step st.
func (r *planRun) member(st *step, row int) bool {
	if st.bits >= 0 {
		return r.bits[st.bits+row>>6]&(1<<(row&63)) != 0
	}
	if st.cands == nil {
		return st.table.Live(row)
	}
	if st.searches > 0 {
		if st.searches--; st.searches == 0 {
			r.setBits(st)
			return r.bits[st.bits+row>>6]&(1<<(row&63)) != 0
		}
	}
	_, ok := slices.BinarySearch(st.cands, row)
	return ok
}

// setBits builds the step's candidate bitmap: table.Len() bits appended
// to r.bits, which grows only past its pooled length and is otherwise
// all zero, so the build sets len(cands) bits and touches no other word.
func (r *planRun) setBits(st *step) {
	st.bits = r.nbits
	r.nbits += (st.table.Len() + 63) >> 6
	if len(r.bits) < r.nbits {
		r.bits = append(r.bits, make([]uint64, r.nbits-len(r.bits))...)
	}
	for _, id := range st.cands {
		r.bits[st.bits+id>>6] |= 1 << (id & 63)
	}
}

// Viability memo states, two bits per (step, row); zero is "not resolved
// yet", so an untouched memo word is all zero.
const (
	memoDead = 1
	memoLive = 2
)

// inlineNodes is the plan size up to which a planRun's bookkeeping lives
// in the planRun itself; larger plans grow it on the heap.
const inlineNodes = 8

// planRun is the scratch of one plan execution, recycled through runPool
// so that no plan allocates or clears table.Len() words it never
// touches: memo and bits are all-zero between runs, and release restores
// that by clearing only the words the run wrote (memo's dirty list, and
// each bitmap's candidates).
type planRun struct {
	sels   [][]int // per node: the candidate selection
	order  []step
	assign []int // per node: the row of the partial result
	words  int   // memo words the order's inner steps need
	memo   []uint64
	dirty  []int32
	nbits  int      // bitmap words the built bitmaps use
	bits   []uint64 // candidate bitmaps, table.Len() bits per built one
	// probes counts join partners examined — the unit of the executor's
	// work bound (see below).
	probes int

	limit   int
	collect bool
	count   int
	results []JTT

	selsBuf   [inlineNodes][]int
	orderBuf  [inlineNodes]step
	assignBuf [inlineNodes]int
}

var runPool = sync.Pool{New: func() any {
	r := new(planRun)
	r.sels, r.order, r.assign = r.selsBuf[:0], r.orderBuf[:0], r.assignBuf[:0]
	return r
}}

// release returns the scratch to the pool with the memo and the bitmaps
// zeroed and every reference into the snapshot dropped.
func (r *planRun) release() {
	for _, w := range r.dirty {
		r.memo[w] = 0
	}
	for k := range r.order {
		if st := &r.order[k]; st.bits >= 0 {
			for _, id := range st.cands {
				r.bits[st.bits+id>>6] = 0
			}
		}
	}
	clear(r.sels)
	clear(r.order)
	*r = planRun{sels: r.sels[:0], order: r.order[:0], assign: r.assign[:0],
		memo: r.memo, dirty: r.dirty[:0], bits: r.bits}
	runPool.Put(r)
}

// runCore is the shared execution core over the proven selections:
// rooted index-nested-loop enumeration that descends only into viable
// rows (the demand-driven semi-join, see planRun.below). With collect it
// materialises JTTs; otherwise it only counts.
func (cp *CompiledPlan) runCore(sels [][]int, cache *SelectionCache, limit int, collect bool) ([]JTT, int) {
	r := runPool.Get().(*planRun)
	defer r.release()
	r.run(cp, sels, cache, limit, collect)
	return r.results, r.count
}

// run executes the plan in this scratch from the selections prove
// returned and returns the root node index (-1 when an unconstrained
// node's table has no live row); results and count are left in r.
func (r *planRun) run(cp *CompiledPlan, sels [][]int, cache *SelectionCache, limit int, collect bool) int {
	n := len(cp.nodes)
	r.sels = append(r.sels, sels...)
	for i, c := range r.sels {
		if c == nil {
			if c = cp.candidates(i, cache); len(c) == 0 {
				return -1
			}
			r.sels[i] = c
		}
	}

	// Root: most selective node by candidate count (first wins ties) —
	// the same choice as the reference executor, so the enumeration
	// order, and therefore the JTT sequence, is identical.
	root := 0
	for i := 1; i < n; i++ {
		if len(r.sels[i]) < len(r.sels[root]) {
			root = i
		}
	}
	r.plan(cp, root, -1, nil)
	if len(r.memo) < r.words {
		r.memo = make([]uint64, r.words)
	}

	r.assign = slices.Grow(r.assign, n)[:n]
	r.limit, r.collect = limit, collect
	for _, id := range r.sels[root] {
		if !r.below(0, id) {
			continue
		}
		r.assign[root] = id
		if r.enumerate(1) {
			break
		}
	}
	return root
}

// plan appends node v, joined to its parent node through adj, and,
// depth-first in edge declaration order (as the reference does),
// everything beyond it to the enumeration order, and returns v's step
// index. Only inner steps below the root get memo space, and only
// constrained steps below it with more than bitmapMin candidates may
// build a bitmap.
func (r *planRun) plan(cp *CompiledPlan, v, parent int, adj *adjacency) int {
	k := len(r.order)
	st := step{node: v, parent: parent, kid: -1, sib: -1, table: cp.nodes[v].table, adj: adj, memo: -1, bits: -1}
	if len(cp.nodes[v].preds) > 0 {
		st.cands = r.sels[v]
		if parent >= 0 && len(st.cands) > bitmapMin {
			st.searches = len(st.cands) >> bitmapShift
		}
	}
	r.order = append(r.order, st)
	last := -1
	for _, he := range cp.adj[v] {
		if he.to == parent {
			continue
		}
		c := r.plan(cp, he.to, v, he.adj)
		if last < 0 {
			r.order[k].kid = c
		} else {
			r.order[last].sib = c
		}
		last = c
	}
	if parent >= 0 && last >= 0 {
		r.order[k].memo = r.words
		r.words += (st.table.Len() + 31) / 32
	}
	return k
}

// below reports whether the row of step k can be completed beneath it:
// for each child edge it has at least one join partner that is a
// candidate of the child and itself completable. This is the semi-join
// reduction of the join tree evaluated on demand: a row is resolved the
// first time enumeration asks about it and remembered in the step's memo,
// so total probe work never exceeds one bottom-up reduction pass over
// the candidates, and is proportional to the rows a limit actually
// reaches when the limit is small.
func (r *planRun) below(k, row int) bool {
	st := &r.order[k]
	if st.kid < 0 {
		return true
	}
	w, sh := 0, uint(row&31)<<1
	if st.memo >= 0 {
		w = st.memo + row>>5
		if s := r.memo[w] >> sh & 3; s != 0 {
			return s == memoLive
		}
	}
	ok := true
	for c := st.kid; c >= 0 && ok; c = r.order[c].sib {
		ch := &r.order[c]
		ok = false
		for _, p := range ch.adj.partners(row) {
			r.probes++
			if r.member(ch, int(p)) && r.below(c, int(p)) {
				ok = true
				break
			}
		}
	}
	if st.memo >= 0 {
		if r.memo[w] == 0 {
			r.dirty = append(r.dirty, int32(w))
		}
		if ok {
			r.memo[w] |= memoLive << sh
		} else {
			r.memo[w] |= memoDead << sh
		}
	}
	return ok
}

// enumerate extends the partial assignment over order[k:] by index
// nested loops, emitting one result per complete assignment; it reports
// true once the limit is reached. Every assigned row is viable, so the
// recursion never backs out of a row without emitting.
func (r *planRun) enumerate(k int) bool {
	if k == len(r.order) {
		r.count++
		if r.collect {
			r.results = append(r.results, JTT{Rows: slices.Clone(r.assign)})
		}
		return r.limit > 0 && r.count >= r.limit
	}
	st := &r.order[k]
	for _, p := range st.adj.partners(r.assign[st.parent]) {
		id := int(p)
		r.probes++
		if !r.member(st, id) || !r.below(k, id) {
			continue
		}
		r.assign[st.node] = id
		if r.enumerate(k + 1) {
			return true
		}
	}
	return false
}
