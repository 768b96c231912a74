// Package relstore implements the in-memory relational storage engine that
// the keyword-search stack runs on.
//
// The thesis evaluates against MySQL; the algorithms under study only need a
// small, well-defined slice of relational functionality from the substrate:
//
//   - schema introspection (tables, columns, primary keys, foreign keys),
//   - point lookups by primary key,
//   - selection with "attribute value contains keyword bag" predicates, and
//   - execution of candidate networks (foreign-key joins over selections),
//     materialising joining trees of tuples (JTTs).
//
// This package provides exactly those code paths. All values are stored as
// strings because every algorithm in the thesis treats tuples as bags of
// text terms (numbers such as years are matched textually too, e.g. the
// keyword "2001" against movie.year).
package relstore

import (
	"fmt"
	"iter"
	"sort"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"repro/internal/cow"
)

// Column describes one attribute of a table.
type Column struct {
	// Name of the attribute, unique within its table.
	Name string
	// Indexed marks textual attributes that participate in keyword search.
	// Key columns (surrogate ids) are typically not indexed.
	Indexed bool
}

// ForeignKey declares that Column of the owning table references
// RefColumn of RefTable (a classic FK → PK relationship).
type ForeignKey struct {
	Column    string
	RefTable  string
	RefColumn string
}

// TableSchema is the static description of a table.
type TableSchema struct {
	Name        string
	Columns     []Column
	PrimaryKey  string
	ForeignKeys []ForeignKey
}

// ColumnIndex returns the positional index of the named column, or -1.
func (s *TableSchema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// HasColumn reports whether the schema declares the named column.
func (s *TableSchema) HasColumn(name string) bool { return s.ColumnIndex(name) >= 0 }

// TextColumns returns the names of all indexed (textual) columns.
func (s *TableSchema) TextColumns() []string {
	var out []string
	for _, c := range s.Columns {
		if c.Indexed {
			out = append(out, c.Name)
		}
	}
	return out
}

// Tuple is one row of a table. Values are positionally aligned with the
// table schema's Columns slice.
type Tuple struct {
	// RowID is a table-local surrogate identifier, assigned densely from 0
	// in insertion order. It doubles as the "primary key" notion used by the
	// DivQ evaluation metrics (an information nugget / subtopic identity).
	RowID  int
	Values []string
}

// Row slots live in fixed-size chunks: a table is a spine of chunk
// pointers, and a mutation batch copies the spine and the chunks it
// writes, sharing every other chunk with the snapshot it came from.
const (
	chunkBits = 8
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// chunk holds chunkSize consecutive row slots and their tombstone bits.
type chunk struct {
	rows [chunkSize]Tuple
	dead [chunkSize / 64]uint64
}

// Table is a materialised relation plus its lookup indexes.
//
// Reads (Row, Value, LookupEqual, SelectContains, Execute over the
// database) are safe for concurrent use; Insert is not and must complete
// before concurrent reads begin (the load-then-Build lifecycle of the
// public API). Post-build row changes never touch a live Table: they go
// through Database.Apply (see mutate.go), which clones the affected
// tables copy-on-write and leaves every existing reader's view intact.
type Table struct {
	Schema *TableSchema

	// chunks holds row slot id at chunks[id>>chunkBits].rows[id&chunkMask];
	// n is the number of slots. Deleted rows stay in place with their
	// tombstone bit set: RowIDs are never reused, so every derived
	// structure keyed by RowID stays valid across deletes; iteration and
	// lazy index construction skip dead rows via Live.
	chunks  []*chunk
	n       int
	numDead int
	// base is, while a mutation batch patches this table, the spine of
	// the table it was copied from: chunk i is private to this table iff
	// i >= len(base) or chunks[i] != base[i]. nil otherwise — a table
	// that is not being patched owns the chunks it allocated.
	base []*chunk
	// value indexes per column: column position -> value -> row ids.
	// Built for primary-key and FK-referenced columns by
	// Database.Prepare and lazily for any other column LookupEqual
	// reads; idxMu guards lazy construction under concurrent readers.
	idxMu    sync.Mutex
	valueIdx map[int]*cow.Map[[]int]

	// token posting lists per column: column position -> token -> rows
	// with per-row counts. Built lazily on first keyword selection (or
	// eagerly by Database.Prepare); postMu guards lazy construction under
	// concurrent readers. See postings.go.
	postMu   sync.RWMutex
	postings map[int]*ColumnPostings
}

// NewTable creates an empty table for the given schema.
func NewTable(schema *TableSchema) *Table {
	return &Table{
		Schema:   schema,
		valueIdx: make(map[int]*cow.Map[[]int]),
		postings: make(map[int]*ColumnPostings),
	}
}

// Insert appends a row and returns its RowID.
// The number of values must match the schema.
func (t *Table) Insert(values ...string) (int, error) {
	if len(values) != len(t.Schema.Columns) {
		return 0, fmt.Errorf("relstore: table %s expects %d values, got %d",
			t.Schema.Name, len(t.Schema.Columns), len(values))
	}
	vals := make([]string, len(values))
	copy(vals, values)
	id := t.push(vals)
	t.idxMu.Lock()
	for col, idx := range t.valueIdx {
		sh := idx.Edit(vals[col])
		sh[vals[col]] = append(sh[vals[col]], id)
	}
	t.idxMu.Unlock()
	t.postMu.Lock()
	for col, cp := range t.postings {
		cp.addRow(id, vals[col])
	}
	t.postMu.Unlock()
	return id, nil
}

// push appends a row slot and returns its RowID.
func (t *Table) push(vals []string) int {
	id := t.n
	t.writable(id).rows[id&chunkMask] = Tuple{RowID: id, Values: vals}
	t.n++
	return id
}

// writable returns the chunk holding slot id, private to t: a chunk
// still shared with the table t was copied from is copied on its first
// write, and the slot just past the last chunk gets a fresh chunk.
func (t *Table) writable(id int) *chunk {
	i := id >> chunkBits
	if i == len(t.chunks) {
		t.chunks = append(t.chunks, new(chunk))
	} else if i < len(t.base) && t.chunks[i] == t.base[i] {
		c := *t.chunks[i]
		t.chunks[i] = &c
	}
	return t.chunks[i]
}

// slot returns row slot id, live or tombstoned; id must be < Len.
func (t *Table) slot(id int) *Tuple { return &t.chunks[id>>chunkBits].rows[id&chunkMask] }

// Len returns the physical number of row slots, tombstones included.
// Derived structures sized by RowID (bitsets, dense arrays) use Len;
// data-level cardinality is NumLive.
func (t *Table) Len() int { return t.n }

// NumLive returns the number of live (non-tombstoned) rows.
func (t *Table) NumLive() int { return t.n - t.numDead }

// Live reports whether the RowID names an existing, non-deleted row.
func (t *Table) Live(id int) bool {
	return uint(id) < uint(t.n) &&
		(t.numDead == 0 || t.chunks[id>>chunkBits].dead[id&chunkMask>>6]&(1<<(id&63)) == 0)
}

// kill tombstones a live row slot.
func (t *Table) kill(id int) {
	t.writable(id).dead[id&chunkMask>>6] |= 1 << (id & 63)
	t.numDead++
}

// Row returns the tuple with the given RowID; deleted rows report ok=false.
func (t *Table) Row(id int) (Tuple, bool) {
	if !t.Live(id) {
		return Tuple{}, false
	}
	return *t.slot(id), true
}

// Rows iterates the live rows in RowID order. The tuples' Values are
// shared with the table and must not be mutated.
func (t *Table) Rows() iter.Seq2[int, Tuple] {
	return func(yield func(int, Tuple) bool) {
		for id := 0; id < t.n; id++ {
			if t.Live(id) && !yield(id, *t.slot(id)) {
				return
			}
		}
	}
}

// Value returns the named column's value of the given row.
func (t *Table) Value(id int, column string) (string, bool) {
	ci := t.Schema.ColumnIndex(column)
	if ci < 0 || !t.Live(id) {
		return "", false
	}
	return t.slot(id).Values[ci], true
}

// ensureIndex builds (once) the equality index over the given column.
// Safe for concurrent readers: construction happens under idxMu.
func (t *Table) ensureIndex(col int) *cow.Map[[]int] {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if idx, ok := t.valueIdx[col]; ok {
		return idx
	}
	idx := cow.New[[]int]()
	for id, r := range t.Rows() {
		sh := idx.Edit(r.Values[col])
		sh[r.Values[col]] = append(sh[r.Values[col]], id)
	}
	t.valueIdx[col] = idx
	return idx
}

// LookupEqual returns the RowIDs whose column equals value, using a hash
// index that is built on first use.
func (t *Table) LookupEqual(column, value string) []int {
	ci := t.Schema.ColumnIndex(column)
	if ci < 0 {
		return nil
	}
	return t.ensureIndex(ci).Get(value)
}

// Database is a named collection of tables with schema metadata.
type Database struct {
	Name   string
	tables map[string]*Table
	order  []string
	// fks holds the foreign-key adjacencies joins walk (adjacency.go).
	fks fkState
	// skeletons memoises each plan shape's resolved structure
	// (*PlanShape → *skeleton, shape.go).
	skeletons sync.Map
}

// NewDatabase creates an empty database.
func NewDatabase(name string) *Database {
	return &Database{Name: name, tables: make(map[string]*Table)}
}

// CreateTable registers a new table. The schema is validated: the primary
// key column must exist and foreign keys must reference existing columns
// of this table (referenced tables may be created later; ValidateRefs
// checks cross-table integrity).
func (db *Database) CreateTable(schema *TableSchema) (*Table, error) {
	if schema.Name == "" {
		return nil, fmt.Errorf("relstore: table name must be non-empty")
	}
	if _, dup := db.tables[schema.Name]; dup {
		return nil, fmt.Errorf("relstore: table %s already exists", schema.Name)
	}
	if len(schema.Columns) == 0 {
		return nil, fmt.Errorf("relstore: table %s has no columns", schema.Name)
	}
	seen := make(map[string]bool, len(schema.Columns))
	for _, c := range schema.Columns {
		if c.Name == "" {
			return nil, fmt.Errorf("relstore: table %s has a column with empty name", schema.Name)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("relstore: table %s declares column %s twice", schema.Name, c.Name)
		}
		seen[c.Name] = true
	}
	if schema.PrimaryKey != "" && !schema.HasColumn(schema.PrimaryKey) {
		return nil, fmt.Errorf("relstore: table %s: primary key %s is not a column",
			schema.Name, schema.PrimaryKey)
	}
	for _, fk := range schema.ForeignKeys {
		if !schema.HasColumn(fk.Column) {
			return nil, fmt.Errorf("relstore: table %s: foreign key column %s is not a column",
				schema.Name, fk.Column)
		}
	}
	t := NewTable(schema)
	db.tables[schema.Name] = t
	db.order = append(db.order, schema.Name)
	return t, nil
}

// Table returns the named table, or nil if it does not exist.
func (db *Database) Table(name string) *Table { return db.tables[name] }

// Tables returns all tables in creation order.
func (db *Database) Tables() []*Table {
	out := make([]*Table, 0, len(db.order))
	for _, n := range db.order {
		out = append(out, db.tables[n])
	}
	return out
}

// TableNames returns the table names in creation order.
func (db *Database) TableNames() []string {
	out := make([]string, len(db.order))
	copy(out, db.order)
	return out
}

// NumTables returns the number of tables.
func (db *Database) NumTables() int { return len(db.order) }

// NumRows returns the total number of live rows across all tables.
func (db *Database) NumRows() int {
	n := 0
	for _, t := range db.tables {
		n += t.NumLive()
	}
	return n
}

// ValidateRefs checks that every declared foreign key references an existing
// table and column. Call after all tables have been created.
func (db *Database) ValidateRefs() error {
	for _, name := range db.order {
		t := db.tables[name]
		for _, fk := range t.Schema.ForeignKeys {
			ref := db.tables[fk.RefTable]
			if ref == nil {
				return fmt.Errorf("relstore: table %s: foreign key references unknown table %s",
					name, fk.RefTable)
			}
			if !ref.Schema.HasColumn(fk.RefColumn) {
				return fmt.Errorf("relstore: table %s: foreign key references unknown column %s.%s",
					name, fk.RefTable, fk.RefColumn)
			}
		}
	}
	return nil
}

// ContainsBag reports whether every keyword of the bag occurs as a token of
// the attribute value. Matching is case-insensitive on whole tokens,
// mirroring the "k ∈ A" containment predicate of Definition 3.5.2.
func ContainsBag(value string, keywords []string) bool {
	toks := Tokenize(value)
	set := make(map[string]int, len(toks))
	for _, t := range toks {
		set[t]++
	}
	// Bag semantics: duplicated keywords need duplicated occurrences.
	need := make(map[string]int, len(keywords))
	for _, k := range keywords {
		need[strings.ToLower(k)]++
	}
	for k, n := range need {
		if set[k] < n {
			return false
		}
	}
	return true
}

// Tokenize splits a value into lower-cased alphanumeric tokens. It is the
// single tokenizer shared by the storage engine and the inverted index so
// that containment predicates and postings agree exactly.
func Tokenize(value string) []string {
	var out []string
	start := -1
	lower := strings.ToLower(value)
	for i, r := range lower {
		alnum := (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9')
		if alnum {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			out = append(out, lower[start:i])
			start = -1
		}
	}
	if start >= 0 {
		out = append(out, lower[start:])
	}
	return out
}

// CountToken counts the tokens of value, as Tokenize splits it, and how
// many of them equal keyword, in one pass and without allocating: each
// rune is lower-cased as strings.ToLower maps it (an invalid byte, which
// ToLower turns into U+FFFD, separates like any other non-alphanumeric
// rune), and a token is compared with keyword while it is read.
func CountToken(value, keyword string) (matches, tokens int) {
	in, ok, j := false, false, 0
	for _, r := range value {
		if r >= utf8.RuneSelf {
			r = unicode.ToLower(r)
		} else if r >= 'A' && r <= 'Z' {
			r += 'a' - 'A'
		}
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			if !in {
				in, ok, j = true, true, 0
				tokens++
			}
			if ok = ok && j < len(keyword) && keyword[j] == byte(r); ok {
				j++
			}
			continue
		}
		if in && ok && j == len(keyword) {
			matches++
		}
		in = false
	}
	if in && ok && j == len(keyword) {
		matches++
	}
	return matches, tokens
}

// SelectContains returns the RowIDs of rows whose column value contains
// the whole keyword bag, ascending. It evaluates from the column's token
// posting lists — a sorted-list intersection with per-row counts for
// duplicated keywords — and agrees exactly with applying ContainsBag row
// by row (SelectContainsScan is the retained scan reference; differential
// tests enforce the agreement). The returned slice may alias the posting
// lists and must be treated as read-only.
func (t *Table) SelectContains(column string, keywords []string) []int {
	ci := t.Schema.ColumnIndex(column)
	if ci < 0 {
		return nil
	}
	return t.selectPostings(ci, keywords)
}

// SortedCopy returns ids sorted ascending without mutating the input.
func SortedCopy(ids []int) []int {
	out := make([]int, len(ids))
	copy(out, ids)
	sort.Ints(out)
	return out
}
