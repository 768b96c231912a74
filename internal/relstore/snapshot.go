package relstore

import (
	"fmt"
	"maps"
	"sort"

	"repro/internal/cow"
	"repro/internal/durable"
)

// This file implements the storage engine's snapshot codec: a
// deterministic binary encoding of a Database that — unlike the
// rebuild-on-load dump of persist.go — preserves the *physical* table
// state a live mutable engine depends on: every row slot including
// tombstoned ones (RowIDs are never reused, so the slot array's length
// is the RowID high-water mark), the dead set, and optionally the
// per-column token posting lists, so an engine opened from a snapshot
// answers byte-identically to the engine that saved it without
// re-tokenising a single cell.
//
// Determinism: tables are encoded in creation order, rows in RowID
// order, posting terms and index values in sorted order — encoding the
// same database twice yields identical bytes (the byte-stability
// contract snapshot files are diffed and content-addressed by).
//
// Equality indexes (valueIdx) are deliberately not persisted: they are
// token-free to rebuild (one pass over rows, no tokenisation), built
// lazily on first use, and Database.Prepare re-materialises the
// canonical PK/FK set — so persisting them would grow every snapshot
// for a structure that costs microseconds to recover.

// EncodeOptions selects what a database snapshot carries.
type EncodeOptions struct {
	// Physical preserves row slots exactly: tombstoned rows are written
	// (with their values) and marked dead, keeping RowIDs stable. When
	// false, only live rows are written and RowIDs are renumbered
	// densely on decode — the compact "logical dump" of Database.Save.
	Physical bool
	// Postings includes the per-column token posting lists of every
	// indexed column, so decode skips re-tokenising the corpus. Decoders
	// always tolerate their absence (lists rebuild lazily).
	Postings bool
}

// EncodeSnapshot appends the database's snapshot encoding to e.
func (db *Database) EncodeSnapshot(e *durable.Enc, opts EncodeOptions) {
	e.Bool(opts.Physical)
	e.Bool(opts.Postings)
	e.String(db.Name)
	e.Uvarint(uint64(len(db.order)))
	for _, name := range db.order {
		db.tables[name].encodeSnapshot(e, opts)
	}
}

func (t *Table) encodeSnapshot(e *durable.Enc, opts EncodeOptions) {
	s := t.Schema
	e.String(s.Name)
	e.String(s.PrimaryKey)
	e.Uvarint(uint64(len(s.Columns)))
	for _, c := range s.Columns {
		e.String(c.Name)
		e.Bool(c.Indexed)
	}
	e.Uvarint(uint64(len(s.ForeignKeys)))
	for _, fk := range s.ForeignKeys {
		e.String(fk.Column)
		e.String(fk.RefTable)
		e.String(fk.RefColumn)
	}

	if opts.Physical {
		e.Uvarint(uint64(t.n))
		var dead []int
		for id := 0; id < t.n; id++ {
			for _, v := range t.slot(id).Values {
				e.String(v)
			}
			if !t.Live(id) {
				dead = append(dead, id)
			}
		}
		e.Ints(dead)
	} else {
		e.Uvarint(uint64(t.NumLive()))
		for _, row := range t.Rows() {
			for _, v := range row.Values {
				e.String(v)
			}
		}
		e.Ints(nil) // no dead set in a logical dump
	}

	if !opts.Postings {
		e.Uvarint(0)
		return
	}
	// Posting lists of every indexed column, terms sorted. ensurePostings
	// builds any list not yet materialised, so the encoding is complete
	// and identical regardless of which selections ran before the save.
	var indexed []int
	for ci, c := range s.Columns {
		if c.Indexed {
			indexed = append(indexed, ci)
		}
	}
	e.Uvarint(uint64(len(indexed)))
	for _, ci := range indexed {
		cp := t.ensurePostings(ci)
		e.Uvarint(uint64(ci))
		terms := make([]string, 0, cp.terms.Len())
		for term := range cp.terms.All() {
			terms = append(terms, term)
		}
		sort.Strings(terms)
		e.Uvarint(uint64(len(terms)))
		for _, term := range terms {
			pl := cp.terms.Get(term)
			e.String(term)
			e.Ints(pl.rows)
			e.Ints(pl.counts)
		}
	}
}

// DecodeSnapshot reconstructs a database from its snapshot encoding,
// validating schemas and referential declarations like the loading
// path does.
func DecodeSnapshot(d *durable.Dec) (*Database, error) {
	physical := d.Bool()
	_ = d.Bool() // postings flag: presence is re-derived per table below
	name := d.String()
	n := int(d.Uvarint())
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("relstore: decode snapshot: %w", err)
	}
	db := NewDatabase(name)
	for i := 0; i < n; i++ {
		if err := decodeTable(d, db, physical); err != nil {
			return nil, err
		}
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("relstore: decode snapshot: %w", err)
	}
	if err := db.ValidateRefs(); err != nil {
		return nil, fmt.Errorf("relstore: decode snapshot: %w", err)
	}
	return db, nil
}

func decodeTable(d *durable.Dec, db *Database, physical bool) error {
	schema := &TableSchema{Name: d.String(), PrimaryKey: d.String()}
	ncols := int(d.Uvarint())
	for i := 0; i < ncols && d.Err() == nil; i++ {
		schema.Columns = append(schema.Columns, Column{Name: d.String(), Indexed: d.Bool()})
	}
	nfks := int(d.Uvarint())
	for i := 0; i < nfks && d.Err() == nil; i++ {
		schema.ForeignKeys = append(schema.ForeignKeys, ForeignKey{
			Column: d.String(), RefTable: d.String(), RefColumn: d.String(),
		})
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("relstore: decode snapshot: %w", err)
	}
	t, err := db.CreateTable(schema)
	if err != nil {
		return fmt.Errorf("relstore: decode snapshot: %w", err)
	}

	nrows := int(d.Uvarint())
	for id := 0; id < nrows && d.Err() == nil; id++ {
		vals := make([]string, len(schema.Columns))
		for ci := range vals {
			vals[ci] = d.String()
		}
		t.push(vals)
	}
	dead := d.Ints()
	if err := d.Err(); err != nil {
		return fmt.Errorf("relstore: decode snapshot: table %s: %w", schema.Name, err)
	}
	if len(dead) > 0 {
		if !physical {
			return fmt.Errorf("relstore: decode snapshot: table %s: dead rows in a logical dump", schema.Name)
		}
		for _, id := range dead {
			if !t.Live(id) {
				return fmt.Errorf("relstore: decode snapshot: table %s: invalid dead row %d", schema.Name, id)
			}
			t.kill(id)
		}
	}

	npostCols := int(d.Uvarint())
	for i := 0; i < npostCols && d.Err() == nil; i++ {
		ci := int(d.Uvarint())
		if ci < 0 || ci >= len(schema.Columns) {
			return fmt.Errorf("relstore: decode snapshot: table %s: posting column %d out of range", schema.Name, ci)
		}
		nterms := int(d.Uvarint())
		cp := &ColumnPostings{terms: cow.New[*postingList]()}
		for j := 0; j < nterms && d.Err() == nil; j++ {
			term := d.String()
			pl := &postingList{rows: d.Ints(), counts: d.Ints()}
			if len(pl.rows) == 0 || len(pl.rows) != len(pl.counts) {
				return fmt.Errorf("relstore: decode snapshot: table %s: term %q has %d rows and %d counts", schema.Name, term, len(pl.rows), len(pl.counts))
			}
			if _, dup := cp.terms.Lookup(term); dup {
				return fmt.Errorf("relstore: decode snapshot: table %s: term %q listed twice", schema.Name, term)
			}
			for k, row := range pl.rows {
				if row < 0 || row >= t.n || (k > 0 && row <= pl.rows[k-1]) || !t.Live(row) {
					return fmt.Errorf("relstore: decode snapshot: table %s: term %q has invalid posting rows", schema.Name, term)
				}
				// A value of n bytes holds at most (n+1)/2 tokens, so the
				// column's statistics can never overflow.
				c := pl.counts[k]
				if c <= 0 || c > (len(t.slot(row).Values[ci])+1)/2 {
					return fmt.Errorf("relstore: decode snapshot: table %s: term %q has count %d in row %d", schema.Name, term, c, row)
				}
				pl.maxCount = max(pl.maxCount, c)
				pl.total += c
			}
			cp.terms.Edit(term)[term] = pl
			cp.tokens += pl.total
		}
		t.postings[ci] = cp
	}
	return d.Err()
}

// CompactTables returns a database in which the named tables have been
// rebuilt without tombstones: live rows are re-inserted in RowID order,
// renumbering them densely from 0, and the per-table indexes and the
// foreign-key adjacencies of the compacted tables rebuild from the
// compacted rows. Untouched tables (and tables with no dead
// rows) are shared with the receiver, which is never modified — the
// rebuild-and-swap primitive of checkpoint-time tombstone compaction.
// Readers of the old database keep a consistent view; the caller
// republishes every derived structure (inverted index, statistics)
// over the returned database, since RowIDs changed.
func (db *Database) CompactTables(names []string) *Database {
	ndb := &Database{Name: db.Name, tables: maps.Clone(db.tables), order: db.order}
	for _, name := range names {
		t := db.tables[name]
		if t == nil || t.numDead == 0 {
			continue
		}
		nt := NewTable(t.Schema)
		for _, row := range t.Rows() {
			if _, err := nt.Insert(row.Values...); err != nil {
				// Impossible: values came from a row of the same schema.
				panic(fmt.Sprintf("relstore: compact %s: %v", name, err))
			}
		}
		ndb.tables[name] = nt
	}
	if s := db.fks.set.Load(); s != nil {
		// Links between shared tables carry over; the rest rebuild.
		ndb.fks.set.Store(&fkSet{tables: len(ndb.order), links: ndb.relink(s.links)})
	}
	return ndb
}

// DeadRatio returns tombstoned slots as a fraction of live rows. A
// table whose rows are all tombstoned reports the tombstone count
// itself (rather than +Inf), which still exceeds any sane threshold.
func (t *Table) DeadRatio() float64 {
	if t.numDead == 0 {
		return 0
	}
	live := t.NumLive()
	if live == 0 {
		return float64(t.numDead)
	}
	return float64(t.numDead) / float64(live)
}
