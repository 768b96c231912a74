package relstore

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/cow"
)

// This file implements live row mutations over a built database. The
// design is copy-on-write at table granularity with incremental index
// maintenance inside the copy:
//
//   - Database.Apply never modifies the receiver. It returns a new
//     Database sharing every untouched table (and therefore that table's
//     rows, equality indexes, and posting lists) with the old one.
//   - A touched table is cloned shallowly — only the spine of row-chunk
//     pointers is copied, and a chunk is copied the first time the batch
//     writes a slot of it; the index and posting maps are shared shard
//     by shard (cow.Map) and only the shards a batch writes are copied;
//     the per-value row lists and per-token posting lists stay shared —
//     and then patched functionally: every affected row list / posting
//     list is replaced by an updated version, so nothing the old
//     database can read is ever written. A version appended at its end
//     may share its predecessor's array, writing only past the
//     predecessor's length (see tail).
//   - The foreign-key adjacencies of every FK a changed table takes
//     part in are patched the same way: a batch copies an adjacency's
//     chunk spine and rebuilds only the chunks whose rows gained or
//     lost a partner (see fkEdit in adjacency.go).
//   - Deletes tombstone the row instead of renumbering: RowIDs are
//     assigned once and never reused, which keeps every RowID-keyed
//     structure (posting lists, equality indexes, memos) valid without
//     a rebuild. All iteration and lazy index construction skips
//     tombstones via Table.Live.
//
// The result: a mutation batch costs O(the chunks, index shards and
// lists it writes + one chunk-pointer spine per touched table), never
// O(rows); re-tokenisation is limited to the changed cell values; and a
// reader holding the old Database sees a perfectly consistent pre-batch
// view forever (snapshot isolation — the engine layer publishes the
// returned database with an atomic pointer swap).

// Op is a mutation kind.
type Op string

// The three row mutation kinds of Database.Apply.
const (
	OpInsert Op = "insert"
	OpUpdate Op = "update"
	OpDelete Op = "delete"
)

// Mutation is one row change. Insert carries the full value list; Update
// and Delete address the row by its primary-key value (Key) and Update
// carries the full replacement value list.
type Mutation struct {
	Op     Op
	Table  string
	Key    string
	Values []string
}

// RowChange records one applied row mutation in terms of the physical
// row: Old is nil for an insert, New is nil for a delete, and both are
// set for an update. Downstream incremental maintainers (inverted index,
// ranking statistics) consume RowChanges to patch exactly
// the affected entries.
type RowChange struct {
	Table string
	RowID int
	// Old holds the pre-change values (shared, read-only); nil for inserts.
	Old []string
	// New holds the post-change values (shared, read-only); nil for deletes.
	New []string
}

// Apply validates and applies a mutation batch, returning the new
// database and the per-row change log in application order. The receiver
// is never modified; on error the returned database is nil and no change
// is visible anywhere. The batch is applied in order, so later mutations
// see earlier ones (an inserted row can be updated or deleted by key
// within one batch).
func (db *Database) Apply(muts []Mutation) (*Database, []RowChange, error) {
	if len(muts) == 0 {
		return nil, nil, fmt.Errorf("relstore: empty mutation batch")
	}
	ndb := &Database{Name: db.Name, tables: maps.Clone(db.tables), order: db.order}
	fe := db.newFKEdit(ndb)
	touched := make(map[string]*Table)
	tableFor := func(i int, name string) (*Table, error) {
		if t, ok := touched[name]; ok {
			return t, nil
		}
		t := db.tables[name]
		if t == nil {
			return nil, fmt.Errorf("relstore: mutation %d: unknown table %q", i, name)
		}
		nt := t.mutableCopy()
		touched[name] = nt
		ndb.tables[name] = nt
		return nt, nil
	}
	changes := make([]RowChange, 0, len(muts))
	for i, m := range muts {
		switch m.Op {
		case OpInsert:
			t, err := tableFor(i, m.Table)
			if err != nil {
				return nil, nil, err
			}
			if len(m.Values) != len(t.Schema.Columns) {
				return nil, nil, fmt.Errorf("relstore: mutation %d: table %s expects %d values, got %d",
					i, m.Table, len(t.Schema.Columns), len(m.Values))
			}
			// Keyed tables reject duplicate keys: a second live row under
			// one key would make that key unaddressable by update/delete
			// forever (findByKey demands uniqueness), so the batch that
			// would create it is the right place to fail.
			if pk := t.Schema.PrimaryKey; pk != "" {
				if pkVal := m.Values[t.Schema.ColumnIndex(pk)]; pkVal != "" && len(t.LookupEqual(pk, pkVal)) > 0 {
					return nil, nil, fmt.Errorf("relstore: mutation %d: table %s already has a row with %s=%q",
						i, m.Table, pk, pkVal)
				}
			}
			vals := slices.Clone(m.Values)
			id := t.applyInsert(vals)
			fe.rowChanged(m.Table, id, nil, vals)
			changes = append(changes, RowChange{Table: m.Table, RowID: id, New: vals})
		case OpUpdate:
			t, err := tableFor(i, m.Table)
			if err != nil {
				return nil, nil, err
			}
			if len(m.Values) != len(t.Schema.Columns) {
				return nil, nil, fmt.Errorf("relstore: mutation %d: table %s expects %d values, got %d",
					i, m.Table, len(t.Schema.Columns), len(m.Values))
			}
			id, err := t.findByKey(i, m.Key)
			if err != nil {
				return nil, nil, err
			}
			old := t.slot(id).Values
			// An update re-keying the row must not collide either.
			if pk := t.Schema.PrimaryKey; pk != "" {
				pki := t.Schema.ColumnIndex(pk)
				if pkVal := m.Values[pki]; pkVal != old[pki] && pkVal != "" && len(t.LookupEqual(pk, pkVal)) > 0 {
					return nil, nil, fmt.Errorf("relstore: mutation %d: table %s already has a row with %s=%q",
						i, m.Table, pk, pkVal)
				}
			}
			vals := slices.Clone(m.Values)
			t.applyUpdate(id, vals)
			fe.rowChanged(m.Table, id, old, vals)
			changes = append(changes, RowChange{Table: m.Table, RowID: id, Old: old, New: vals})
		case OpDelete:
			t, err := tableFor(i, m.Table)
			if err != nil {
				return nil, nil, err
			}
			id, err := t.findByKey(i, m.Key)
			if err != nil {
				return nil, nil, err
			}
			old := t.slot(id).Values
			t.applyDelete(id)
			fe.rowChanged(m.Table, id, old, nil)
			changes = append(changes, RowChange{Table: m.Table, RowID: id, Old: old})
		default:
			return nil, nil, fmt.Errorf("relstore: mutation %d: unknown op %q (want insert, update, or delete)", i, m.Op)
		}
	}
	for _, t := range touched {
		t.base = nil // published: the batch's chunk ownership ends here
	}
	ndb.fks.set.Store(fe.finish())
	return ndb, changes, nil
}

// mutableCopy clones the table for copy-on-write patching: the
// chunk-pointer spine is copied (with room for one more chunk) and the
// chunks stay shared until a write copies one (see writable), the
// indexes and posting maps are cloned shard-shared (see cow.Map), and
// the per-value row lists and posting lists stay shared until a patch
// replaces them. The copy holds fresh mutexes; the source's locks are
// taken so a concurrent lazy index build on the live table cannot race
// the clone.
func (t *Table) mutableCopy() *Table {
	nt := &Table{
		Schema:   t.Schema,
		chunks:   append(make([]*chunk, 0, len(t.chunks)+1), t.chunks...),
		n:        t.n,
		numDead:  t.numDead,
		base:     t.chunks,
		valueIdx: make(map[int]*cow.Map[[]int]),
		postings: make(map[int]*ColumnPostings),
	}
	t.idxMu.Lock()
	for col, idx := range t.valueIdx {
		nt.valueIdx[col] = idx.Clone()
	}
	t.idxMu.Unlock()
	t.postMu.Lock()
	for col, cp := range t.postings {
		nt.postings[col] = &ColumnPostings{terms: cp.terms.Clone(), tokens: cp.tokens}
	}
	t.postMu.Unlock()
	return nt
}

// findByKey resolves the live row addressed by the primary-key value.
func (t *Table) findByKey(i int, key string) (int, error) {
	pk := t.Schema.PrimaryKey
	if pk == "" {
		return 0, fmt.Errorf("relstore: mutation %d: table %s has no primary key; updates and deletes address rows by key",
			i, t.Schema.Name)
	}
	if key == "" {
		return 0, fmt.Errorf("relstore: mutation %d: empty key for table %s", i, t.Schema.Name)
	}
	ids := t.LookupEqual(pk, key)
	if len(ids) == 0 {
		return 0, fmt.Errorf("relstore: mutation %d: table %s has no row with %s=%q", i, t.Schema.Name, pk, key)
	}
	if len(ids) > 1 {
		return 0, fmt.Errorf("relstore: mutation %d: table %s has %d rows with %s=%q; key must be unique",
			i, t.Schema.Name, len(ids), pk, key)
	}
	return ids[0], nil
}

// indexInsert and indexRemove patch one equality-index entry, replacing
// the row list functionally (it may be shared with the pre-batch
// snapshot) and dropping a value whose last row went away.
func indexInsert(idx *cow.Map[[]int], value string, id int) {
	sh := idx.Edit(value)
	sh[value] = SortedInsert(sh[value], id)
}

func indexRemove(idx *cow.Map[[]int], value string, id int) {
	sh := idx.Edit(value)
	if ids := sortedRemove(sh[value], id); len(ids) > 0 {
		sh[value] = ids
	} else {
		delete(sh, value)
	}
}

// applyInsert appends a row to the COW table, maintaining every built
// index incrementally, and returns its RowID.
func (t *Table) applyInsert(vals []string) int {
	id := t.push(vals)
	for col, idx := range t.valueIdx {
		indexInsert(idx, vals[col], id)
	}
	for col, cp := range t.postings {
		cp.addValue(id, vals[col])
	}
	return id
}

// applyDelete tombstones the row, removing it from every built index.
func (t *Table) applyDelete(id int) {
	old := t.slot(id).Values
	t.kill(id)
	for col, idx := range t.valueIdx {
		indexRemove(idx, old[col], id)
	}
	for col, cp := range t.postings {
		cp.removeValue(id, old[col])
	}
}

// applyUpdate replaces the row's values, re-indexing only the columns
// whose value actually changed.
func (t *Table) applyUpdate(id int, vals []string) {
	old := t.slot(id).Values
	t.writable(id).rows[id&chunkMask] = Tuple{RowID: id, Values: vals}
	for col, idx := range t.valueIdx {
		if old[col] == vals[col] {
			continue
		}
		indexRemove(idx, old[col], id)
		indexInsert(idx, vals[col], id)
	}
	for col, cp := range t.postings {
		if old[col] == vals[col] {
			continue
		}
		cp.removeValue(id, old[col])
		cp.addValue(id, vals[col])
	}
}

// addValue tokenizes one cell value and folds it into the postings,
// replacing affected posting lists functionally (the originals may be
// shared with the pre-batch snapshot).
func (cp *ColumnPostings) addValue(row int, value string) {
	counts, n := cp.tokenCounts(value)
	cp.tokens += n
	for tok, c := range counts {
		sh := cp.terms.Edit(tok)
		sh[tok] = sh[tok].withRow(row, c)
	}
}

// removeValue removes one cell value's tokens from the postings,
// dropping token entries that become empty.
func (cp *ColumnPostings) removeValue(row int, value string) {
	counts, n := cp.tokenCounts(value)
	cp.tokens -= n
	for tok := range counts {
		sh := cp.terms.Edit(tok)
		if npl := sh[tok].withoutRow(row); npl != nil {
			sh[tok] = npl
		} else {
			delete(sh, tok)
		}
	}
}

// withRow returns a new posting list with the row's occurrence count
// inserted at its sorted position. The receiver may be nil (first row of
// a token) and its rows and counts are never modified. The rows follow
// insertRow; when it appends in place, its claim on the shared tail
// covers the same element of counts, so the count is appended too.
func (p *postingList) withRow(row, count int) *postingList {
	if p == nil {
		return &postingList{rows: []int{row}, counts: []int{count}, maxCount: count, total: count}
	}
	n := len(p.rows)
	rows, t := insertRow(p.rows, p.tail, row)
	var counts []int
	if t == p.tail {
		counts = append(p.counts, count)
	} else {
		counts = slices.Insert(p.counts[:n:n], sort.SearchInts(p.rows, row), count)
	}
	return &postingList{rows: rows, counts: counts, maxCount: max(p.maxCount, count), total: p.total + count, tail: t}
}

// withoutRow returns a new posting list without the row, or nil when the
// list becomes empty. The receiver is never modified.
func (p *postingList) withoutRow(row int) *postingList {
	if p == nil {
		return nil
	}
	at := sort.SearchInts(p.rows, row)
	if at >= len(p.rows) || p.rows[at] != row {
		return p // row absent: share the unchanged list
	}
	if len(p.rows) == 1 {
		return nil
	}
	np := &postingList{
		rows:   make([]int, 0, len(p.rows)-1),
		counts: make([]int, 0, len(p.counts)-1),
		total:  p.total - p.counts[at],
	}
	np.rows = append(append(np.rows, p.rows[:at]...), p.rows[at+1:]...)
	np.counts = append(append(np.counts, p.counts[:at]...), p.counts[at+1:]...)
	for _, c := range np.counts {
		if c > np.maxCount {
			np.maxCount = c
		}
	}
	return np
}

// tail counts the elements written into one backing array that several
// copy-on-write versions of an ascending RowID list share. A version of
// length n may append in place only by claiming element n, which
// succeeds only while nothing has been written past n. Two successors of
// one version therefore never overwrite each other: the second finds the
// count moved and copies. A nil tail claims nothing.
type tail struct{ n atomic.Int64 }

func newTail(n int) *tail {
	t := new(tail)
	t.n.Store(int64(n))
	return t
}

// claim reserves element n of the shared array for a version of length n.
func (t *tail) claim(n int) bool { return t != nil && t.n.CompareAndSwap(int64(n), int64(n)+1) }

// insertRow returns ids with id inserted in ascending order, and the tail
// the result shares. The elements of ids are never modified: they may be
// shared with a pre-batch snapshot. An inserted row's RowID is its
// table's largest, so id usually goes last. Then, when the array has
// room and tail shows nothing was written past len(ids), id is written
// in place. A token that every insert shares thus costs amortised O(1)
// per insert instead of a copy of its whole list. Otherwise the list is
// copied with room to grow under a new tail.
func insertRow(ids []int, t *tail, id int) ([]int, *tail) {
	n := len(ids)
	if n > 0 && ids[n-1] < id && n < cap(ids) && t.claim(n) {
		return append(ids, id), t
	}
	return slices.Insert(ids[:n:n], sort.SearchInts(ids, id), id), newTail(n + 1)
}

// SortedInsert returns a new ascending slice with id inserted; the input
// is never modified (it may be shared with a pre-batch snapshot). The
// equality indexes patch their per-value row lists with it: a value
// rarely has more than a few rows, so they carry no tail.
func SortedInsert(ids []int, id int) []int {
	at := sort.SearchInts(ids, id)
	out := make([]int, 0, len(ids)+1)
	return append(append(append(out, ids[:at]...), id), ids[at:]...)
}

// sortedRemove returns a new ascending slice without id (the input when
// id is absent); the input is never modified.
func sortedRemove(ids []int, id int) []int {
	at := sort.SearchInts(ids, id)
	if at >= len(ids) || ids[at] != id {
		return ids
	}
	out := make([]int, 0, len(ids)-1)
	return append(append(out, ids[:at]...), ids[at+1:]...)
}
