package relstore

import (
	"iter"
	"sort"
	"strings"

	"repro/internal/cow"
)

// This file implements the per-column token posting lists that back the
// keyword-containment selections of the execution engine. A posting list
// records, for one token of one column, the ascending RowIDs whose value
// contains the token together with the per-row occurrence count, so that
// the bag-containment predicate of Definition 3.5.2 — including bags with
// duplicated keywords — evaluates as a sorted-list intersection instead of
// tokenizing every cell on every call (the classic inverted-postings
// evaluation of DISCOVER-style candidate-network executors).
//
// Lists are built once per column (lazily on first use, or eagerly via
// Database.Prepare) and are immutable afterwards except for the
// insert-before-read phase, which appends incrementally exactly like the
// equality indexes. The original scan evaluation is kept in the tests
// (reference_test.go) as the differential oracle.

// postingList is the posting list of one token within one column.
type postingList struct {
	// rows holds the RowIDs whose value contains the token, ascending.
	rows []int
	// counts holds the per-row occurrence count, parallel to rows.
	counts []int
	// maxCount is the largest per-row count, so selections needing more
	// duplicated occurrences than any row has can answer "empty" at once.
	maxCount int
	// total is the sum of counts: the token's occurrences in the column.
	total int
	// tail is shared by every version whose rows and counts alias the
	// same arrays; nil for lists built by add, which withRow copies first.
	tail *tail
}

// add records one row's occurrences; rows arrive in ascending RowID order.
func (p *postingList) add(row, count int) {
	p.rows = append(p.rows, row)
	p.counts = append(p.counts, count)
	p.maxCount = max(p.maxCount, count)
	p.total += count
}

// ColumnPostings maps token -> posting list for one column. Besides
// serving keyword selections, it is the inverted index's source of
// term statistics (Section 3.6.2): per token the occurrence and row
// counts, per column the token total and the vocabulary. A version is
// never written once a reader can see it: Database.Apply patches a
// copy (see mutableCopy).
type ColumnPostings struct {
	terms *cow.Map[*postingList]
	// tokens is the number of token occurrences over the column's live
	// values: the sum of every list's total.
	tokens int
	// cells counts the cell values tokenized into this version: every
	// row for a column built from its rows, the changed cells for a copy
	// patched by Apply, none for a decoded one. Only tests read it.
	cells int
}

// Term returns the token's occurrences in the column and the number of
// rows whose value contains it; both are 0 for an absent token.
func (cp *ColumnPostings) Term(tok string) (count, rows int) {
	if pl := cp.terms.Get(tok); pl != nil {
		return pl.total, len(pl.rows)
	}
	return 0, 0
}

// Tokens returns the number of token occurrences over the column's
// live values.
func (cp *ColumnPostings) Tokens() int { return cp.tokens }

// Vocabulary returns the number of distinct tokens in the column.
func (cp *ColumnPostings) Vocabulary() int { return cp.terms.Len() }

// Terms iterates the column's distinct tokens in no particular order.
func (cp *ColumnPostings) Terms() iter.Seq[string] {
	return func(yield func(string) bool) {
		for tok := range cp.terms.All() {
			if !yield(tok) {
				return
			}
		}
	}
}

// tokenCounts tokenizes one cell value into its distinct tokens with
// their occurrence counts, and reports the total token count.
func (cp *ColumnPostings) tokenCounts(value string) (map[string]int, int) {
	cp.cells++
	toks := Tokenize(value)
	counts := make(map[string]int, len(toks))
	for _, tok := range toks {
		counts[tok]++
	}
	return counts, len(toks)
}

// addRow tokenizes one value and folds it into the postings.
func (cp *ColumnPostings) addRow(row int, value string) {
	counts, n := cp.tokenCounts(value)
	cp.tokens += n
	for tok, c := range counts {
		sh := cp.terms.Edit(tok)
		pl := sh[tok]
		if pl == nil {
			pl = &postingList{}
			sh[tok] = pl
		}
		pl.add(row, c)
	}
}

// buildColumnPostings constructs the postings of one column from scratch,
// skipping tombstoned rows.
func (t *Table) buildColumnPostings(col int) *ColumnPostings {
	cp := &ColumnPostings{terms: cow.New[*postingList]()}
	for id, r := range t.Rows() {
		cp.addRow(id, r.Values[col])
	}
	return cp
}

// ensurePostings returns the postings of the column, building them on
// first use. Safe for concurrent readers: the fast path is a read-lock
// map hit; construction happens once under the write lock.
func (t *Table) ensurePostings(col int) *ColumnPostings {
	t.postMu.RLock()
	cp := t.postings[col]
	t.postMu.RUnlock()
	if cp != nil {
		return cp
	}
	t.postMu.Lock()
	defer t.postMu.Unlock()
	if cp := t.postings[col]; cp != nil {
		return cp
	}
	cp = t.buildColumnPostings(col)
	t.postings[col] = cp
	return cp
}

// Postings returns the posting lists of the named column, building them
// on first use, or nil when the table has no such column.
func (t *Table) Postings(column string) *ColumnPostings {
	ci := t.Schema.ColumnIndex(column)
	if ci < 0 {
		return nil
	}
	return t.ensurePostings(ci)
}

// selectPostings evaluates the bag-containment selection of a non-empty
// keyword bag over the column's posting lists: one sorted list per
// distinct keyword (rows needing the keyword n times are pre-filtered by
// per-row counts), intersected smallest-first. The result is ascending
// and must be treated as read-only — single-keyword selections alias the
// posting list itself.
func (t *Table) selectPostings(ci int, keywords []string) []int {
	cp := t.ensurePostings(ci)
	// Bag semantics: duplicated keywords need duplicated occurrences.
	need := make(map[string]int, len(keywords))
	for _, k := range keywords {
		need[strings.ToLower(k)]++
	}
	lists := make([][]int, 0, len(need))
	for k, n := range need {
		pl := cp.terms.Get(k)
		if pl == nil {
			return nil
		}
		if n <= 1 {
			lists = append(lists, pl.rows)
			continue
		}
		if pl.maxCount < n {
			return nil
		}
		var filtered []int
		for i, row := range pl.rows {
			if pl.counts[i] >= n {
				filtered = append(filtered, row)
			}
		}
		if len(filtered) == 0 {
			return nil
		}
		lists = append(lists, filtered)
	}
	if len(lists) == 1 {
		return lists[0]
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	out := lists[0]
	for _, l := range lists[1:] {
		out = intersectSorted(out, l)
		if len(out) == 0 {
			return nil
		}
	}
	return out
}

// intersectSorted intersects two ascending RowID lists into a new slice.
func intersectSorted(a, b []int) []int {
	if len(a) > len(b) {
		a, b = b, a
	}
	out := make([]int, 0, len(a))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// allRowIDs returns a fresh ascending slice of all live RowIDs (RowIDs
// are assigned densely from 0 in insertion order; tombstones are skipped).
func (t *Table) allRowIDs() []int {
	out := make([]int, 0, t.NumLive())
	for id := range t.Rows() {
		out = append(out, id)
	}
	return out
}

// Prepare eagerly builds the derived read structures the execution engine
// uses — posting lists over every indexed column, equality indexes over
// primary-key and referenced columns, and the foreign-key adjacencies
// joins walk (adjacency.go) — so that a built database serves its first
// query at steady-state speed and concurrent readers never contend on
// lazy construction. Foreign-key columns get no equality index: joins
// never probe one, and LookupEqual builds it on first use like any other
// column's. Building is idempotent; Prepare is called by the engine's
// Build and Open and after checkpoint compaction, and is optional for
// standalone use (every structure also builds lazily on first use).
func (db *Database) Prepare() {
	for _, name := range db.order {
		t := db.tables[name]
		for ci, c := range t.Schema.Columns {
			if c.Indexed {
				t.ensurePostings(ci)
			}
		}
		if pk := t.Schema.PrimaryKey; pk != "" {
			if ci := t.Schema.ColumnIndex(pk); ci >= 0 {
				t.ensureIndex(ci)
			}
		}
		for _, fk := range t.Schema.ForeignKeys {
			if ref := db.tables[fk.RefTable]; ref != nil {
				if ci := ref.Schema.ColumnIndex(fk.RefColumn); ci >= 0 {
					ref.ensureIndex(ci)
				}
			}
		}
	}
	db.linkSet()
}
