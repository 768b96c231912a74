package relstore

import (
	"slices"
	"sync"
	"sync/atomic"
)

// This file implements the foreign-key adjacency the executor joins
// through. Every declared foreign key C.col → P.ref gets two row-indexed
// integer adjacencies:
//
//   - up, over C's row slots: the P rows whose ref equals the row's col;
//   - down, over P's row slots: the C rows whose col equals the row's ref.
//
// Both are exactly the equality join on the two columns (the empty
// string joins like any other value), restricted to live rows, with
// every partner list ascending — the order of the equality index it
// replaces, so the executor's JTT sequence and probe count are
// unchanged. A join probe is then two array reads instead of a string
// hash of the join value.
//
// An adjacency is a spine of per-chunk CSRs, chunked like Table.chunks:
// chunk i covers row slots [i*chunkSize, (i+1)*chunkSize), and row j of
// it has partners part[off[j]:off[j+1]]. Database.Apply copies the spine
// of an adjacency it patches and rebuilds only the chunks whose rows
// gained or lost a partner, sharing every other chunk with the snapshot
// it came from (see fkEdit). The adjacencies are derived data: they are
// never persisted, Prepare builds them, and a database that was not
// prepared builds them on its first Compile or Apply.

// adjChunk is the CSR of one row chunk.
type adjChunk struct {
	off  []int32 // len = row slots in the chunk + 1
	part []int32
}

// adjacency maps each row slot of one table to its partner rows across
// one foreign key.
type adjacency struct {
	chunks []*adjChunk
}

// partners returns the row's partners, ascending. The slice is shared
// with the adjacency and capped, so appending to it copies.
func (a *adjacency) partners(row int) []int32 {
	i := row >> chunkBits
	if i >= len(a.chunks) {
		return nil
	}
	c, j := a.chunks[i], row&chunkMask
	if j+1 >= len(c.off) {
		return nil
	}
	lo, hi := c.off[j], c.off[j+1]
	return c.part[lo:hi:hi]
}

// chunksFor is the number of chunks covering n row slots; rowsIn is the
// number of row slots chunk i of them holds.
func chunksFor(n int) int { return (n + chunkMask) >> chunkBits }

func rowsIn(i, n int) int { return min(chunkSize, n-i<<chunkBits) }

// fkLink is one declared foreign key child.col → parent.ref with both of
// its adjacencies. childN and parentN are the tables' slot counts the
// adjacencies cover: Table.Insert before Build grows a table in place,
// and a link that no longer covers its tables is rebuilt.
type fkLink struct {
	child, parent   *Table
	col, ref        int
	childN, parentN int
	up, down        adjacency
}

// current reports whether the link still covers its tables' rows.
func (l *fkLink) current() bool { return l.childN == l.child.n && l.parentN == l.parent.n }

// newLink builds both adjacencies of a foreign key from the rows: up
// from the parent's equality index on ref, down as up's transpose.
func newLink(c *Table, col int, p *Table, ref int) *fkLink {
	l := &fkLink{child: c, parent: p, col: col, ref: ref, childN: c.n, parentN: p.n}
	idx := p.ensureIndex(ref)
	var buf []int32 // one chunk's partners, copied out at their exact size
	l.up.chunks = make([]*adjChunk, chunksFor(c.n))
	for i := range l.up.chunks {
		rows, start := rowsIn(i, c.n), i<<chunkBits
		uc := &adjChunk{off: make([]int32, rows+1)}
		buf = buf[:0]
		for j := 0; j < rows; j++ {
			if row := start + j; c.Live(row) {
				for _, id := range idx.Get(c.slot(row).Values[col]) {
					buf = append(buf, int32(id))
				}
			}
			uc.off[j+1] = int32(len(buf))
		}
		uc.part = slices.Clone(buf)
		l.up.chunks[i] = uc
	}
	// Transpose: size each parent row's list, then fill the lists by
	// visiting children in ascending order, so each comes out ascending.
	fill := make([]int32, p.n)
	for _, uc := range l.up.chunks {
		for _, q := range uc.part {
			fill[q]++
		}
	}
	l.down.chunks = make([]*adjChunk, chunksFor(p.n))
	for i := range l.down.chunks {
		rows, start := rowsIn(i, p.n), i<<chunkBits
		dc := &adjChunk{off: make([]int32, rows+1)}
		for j := 0; j < rows; j++ {
			dc.off[j+1] = dc.off[j] + fill[start+j]
			fill[start+j] = dc.off[j]
		}
		dc.part = make([]int32, dc.off[rows])
		l.down.chunks[i] = dc
	}
	for i, uc := range l.up.chunks {
		for j := 0; j+1 < len(uc.off); j++ {
			row := int32(i<<chunkBits + j)
			for _, q := range uc.part[uc.off[j]:uc.off[j+1]] {
				l.down.chunks[q>>chunkBits].part[fill[q]] = row
				fill[q]++
			}
		}
	}
	return l
}

// fkSet is the set of links of one database: one per declared foreign
// key whose tables and columns exist, in table creation and declaration
// order. tables is the table count it was built for.
type fkSet struct {
	tables int
	links  []*fkLink
}

// fkState is the Database's lazily built link set.
type fkState struct {
	mu  sync.Mutex // serialises building
	set atomic.Pointer[fkSet]
}

// linkSet returns the database's foreign-key link set, building the
// links that are missing or no longer cover their tables. Safe for
// concurrent readers: the fast path is one atomic load and a length
// check per link. A rebuilt set is a new value, so a set compares equal
// only to itself.
func (db *Database) linkSet() *fkSet {
	if s := db.fks.set.Load(); s != nil && s.fresh(len(db.order)) {
		return s
	}
	db.fks.mu.Lock()
	defer db.fks.mu.Unlock()
	s := db.fks.set.Load()
	if s != nil && s.fresh(len(db.order)) {
		return s
	}
	var prev []*fkLink
	if s != nil {
		prev = s.links
	}
	s = &fkSet{tables: len(db.order), links: db.relink(prev)}
	db.fks.set.Store(s)
	return s
}

func (s *fkSet) fresh(tables int) bool {
	if s.tables != tables {
		return false
	}
	for _, l := range s.links {
		if !l.current() {
			return false
		}
	}
	return true
}

// relink returns the database's links, reusing each link of prev that
// joins the database's own tables and still covers them and building the
// rest.
func (db *Database) relink(prev []*fkLink) []*fkLink {
	var out []*fkLink
	for _, name := range db.order {
		c := db.tables[name]
		for _, fk := range c.Schema.ForeignKeys {
			p := db.tables[fk.RefTable]
			if p == nil {
				continue
			}
			col, ref := c.Schema.ColumnIndex(fk.Column), p.Schema.ColumnIndex(fk.RefColumn)
			if col < 0 || ref < 0 {
				continue
			}
			i := slices.IndexFunc(prev, func(l *fkLink) bool {
				return l.child == c && l.col == col && l.parent == p && l.ref == ref && l.current()
			})
			if i >= 0 {
				out = append(out, prev[i])
			} else {
				out = append(out, newLink(c, col, p, ref))
			}
		}
	}
	return out
}

// joinAdjacency returns the adjacency that lists, for each row of from,
// its partners in to under the join from.fromCol = to.toCol: up when the
// edge is a declared foreign key of from, down when it is one of to, and
// nil when it is neither.
func joinAdjacency(links []*fkLink, from *Table, fromCol int, to *Table, toCol int) *adjacency {
	for _, l := range links {
		switch {
		case l.child == from && l.col == fromCol && l.parent == to && l.ref == toCol:
			return &l.up
		case l.child == to && l.col == toCol && l.parent == from && l.ref == fromCol:
			return &l.down
		}
	}
	return nil
}

// fkEdit patches the links of a database through one mutation batch.
// Every row change of a table reaches every link the table takes part
// in; a link's first change gives it a linkEdit, and finish publishes a
// copy of each edited link over the batch's tables.
type fkEdit struct {
	db    *Database // the batch's database: row changes are already applied to it
	src   []*fkLink
	edits []*linkEdit // parallel to src; nil while the link is untouched
}

// linkEdit is the pending state of one link: the rows whose partner
// lists the batch changed, per side.
type linkEdit struct {
	up, down adjEdit
}

// adjEdit overlays changed partner lists on an adjacency. Lists in over
// are private to the batch; the rest are read from src.
type adjEdit struct {
	src  *adjacency
	over map[int][]int32
}

func (e *adjEdit) get(row int) []int32 {
	if l, ok := e.over[row]; ok {
		return l
	}
	return e.src.partners(row)
}

func (e *adjEdit) set(row int, l []int32) {
	if e.over == nil {
		e.over = make(map[int][]int32)
	}
	e.over[row] = l
}

// add inserts partner q into row's list, keeping it ascending; a partner
// already present stays once.
func (e *adjEdit) add(row int, q int32) {
	l := e.get(row)
	at, found := slices.BinarySearch(l, q)
	if !found {
		e.set(row, slices.Insert(l[:len(l):len(l)], at, q))
	}
}

// remove drops partner q from row's list.
func (e *adjEdit) remove(row int, q int32) {
	l := e.get(row)
	if at, found := slices.BinarySearch(l, q); found {
		e.set(row, slices.Delete(slices.Clone(l), at, at+1))
	}
}

// finish returns the patched adjacency over n row slots: the source
// spine, extended to cover n, with every chunk holding a changed row
// rebuilt and every other chunk shared. A row a batch inserted always
// has a changed list (rowChanged sets both of its sides), so the chunks
// past the source spine are among the rebuilt ones.
func (e *adjEdit) finish(n int) adjacency {
	if len(e.over) == 0 {
		return *e.src
	}
	chunks := make([]*adjChunk, chunksFor(n))
	copy(chunks, e.src.chunks)
	changed := make([]int, 0, len(e.over))
	for row := range e.over {
		changed = append(changed, row)
	}
	slices.Sort(changed)
	for len(changed) > 0 {
		i := changed[0] >> chunkBits
		k := 1
		for k < len(changed) && changed[k]>>chunkBits == i {
			k++
		}
		chunks[i] = e.rebuild(i, n, changed[:k])
		changed = changed[k:]
	}
	return adjacency{chunks: chunks}
}

// rebuild builds chunk i over n row slots from its source chunk and the
// changed lists of the given rows (ascending, all in the chunk). The
// partners of each run of unchanged rows are copied in one piece.
func (e *adjEdit) rebuild(i, n int, changed []int) *adjChunk {
	rows, start := rowsIn(i, n), i<<chunkBits
	src := &adjChunk{off: []int32{0}}
	if i < len(e.src.chunks) {
		src = e.src.chunks[i]
	}
	// old is the source offset of row j; rows past the source have none.
	old := func(j int) int32 { return src.off[min(j, len(src.off)-1)] }
	size := int(old(rows))
	for _, row := range changed {
		j := row - start
		size += len(e.over[row]) - int(old(j+1)-old(j))
	}
	c := &adjChunk{off: make([]int32, rows+1), part: make([]int32, 0, size)}
	j := 0 // the next row to emit
	unchanged := func(to int) {
		shift := int32(len(c.part)) - old(j)
		c.part = append(c.part, src.part[old(j):old(to)]...)
		for ; j < to; j++ {
			c.off[j+1] = old(j+1) + shift
		}
	}
	for _, row := range changed {
		unchanged(row - start)
		c.part = append(c.part, e.over[row]...)
		c.off[j+1] = int32(len(c.part))
		j++
	}
	unchanged(rows)
	return c
}

// newFKEdit starts patching db's links for a batch applied to ndb.
func (db *Database) newFKEdit(ndb *Database) *fkEdit {
	src := db.linkSet().links
	return &fkEdit{db: ndb, src: src, edits: make([]*linkEdit, len(src))}
}

// rowChanged patches every link of the table for one applied row change:
// old is nil for an insert and vals is nil for a delete. A side whose
// join column kept its value is left alone; a changed one loses the
// row's old partners and gains its new ones. New partners come from the
// other table's equality index, which already reflects the change.
func (f *fkEdit) rowChanged(table string, row int, old, vals []string) {
	for k, l := range f.src {
		child, parent := l.child.Schema.Name == table, l.parent.Schema.Name == table
		if !child && !parent {
			continue
		}
		e := f.edits[k]
		if e == nil {
			e = &linkEdit{up: adjEdit{src: &l.up}, down: adjEdit{src: &l.down}}
			f.edits[k] = e
		}
		moved := old == nil || vals == nil
		asChild := child && (moved || old[l.col] != vals[l.col])
		asParent := parent && (moved || old[l.ref] != vals[l.ref])
		id := int32(row)
		if old != nil {
			if asChild {
				for _, p := range e.up.get(row) {
					e.down.remove(int(p), id)
				}
				e.up.set(row, nil)
			}
			if asParent {
				for _, c := range e.down.get(row) {
					e.up.remove(int(c), id)
				}
				e.down.set(row, nil)
			}
		}
		if vals == nil {
			continue
		}
		if asChild {
			ps := int32s(f.db.tables[l.parent.Schema.Name].ensureIndex(l.ref).Get(vals[l.col]))
			e.up.set(row, ps)
			for _, p := range ps {
				e.down.add(int(p), id)
			}
		}
		if asParent {
			cs := int32s(f.db.tables[l.child.Schema.Name].ensureIndex(l.col).Get(vals[l.ref]))
			e.down.set(row, cs)
			for _, c := range cs {
				e.up.add(int(c), id)
			}
		}
	}
}

// finish returns the batch's link set: each edited link copied over the
// batch's tables, every other link shared.
func (f *fkEdit) finish() *fkSet {
	links := slices.Clone(f.src)
	for k, e := range f.edits {
		if e == nil {
			continue
		}
		l := f.src[k]
		c, p := f.db.tables[l.child.Schema.Name], f.db.tables[l.parent.Schema.Name]
		links[k] = &fkLink{
			child: c, parent: p, col: l.col, ref: l.ref, childN: c.n, parentN: p.n,
			up: e.up.finish(c.n), down: e.down.finish(p.n),
		}
	}
	return &fkSet{tables: len(f.db.order), links: links}
}

// int32s converts an ascending RowID list to adjacency entries.
func int32s(ids []int) []int32 {
	if len(ids) == 0 {
		return nil
	}
	out := make([]int32, len(ids))
	for i, id := range ids {
		out[i] = int32(id)
	}
	return out
}
