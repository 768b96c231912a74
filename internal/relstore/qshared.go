package relstore

import (
	"cmp"
	"slices"
	"strings"
)

// Attr names one invalidation granule of the database: a (table, column
// position) pair. Col is a positional column index, or MembershipCol for
// the table's row membership itself. Footprints and mutation stale-sets
// are both expressed as []Attr, so "does this cached answer survive this
// batch" is a plain set intersection.
type Attr struct {
	Table string
	Col   int
}

// MembershipCol is the pseudo-column representing a table's set of live
// rows. Inserting or deleting a row changes membership; updating values
// in place does not. Cached results that enumerate a table without a
// column predicate (unconstrained plan nodes, whole-table selections)
// depend on membership rather than on any one column.
const MembershipCol = -1

// SharedStore is the engine-lifetime answer cache consulted by
// SelectionCache and by compiled-plan execution. Implementations
// (repro/internal/qcache) must be safe for concurrent use and must
// guarantee that a Get never returns a value whose footprint was
// invalidated before the caller's snapshot was acquired; in exchange,
// callers promise that every Put's footprint covers all attributes the
// value was computed from, and that stored slices are never written to.
//
// All three namespaces share one byte budget and one admission policy:
//
//   - Selections: (table, column, canonical bag) → ascending row IDs,
//     the unit promoted from the per-request SelectionCache. Footprint
//     is the single selection attribute, implied by the key.
//   - Plans: canonical compiled-plan key → per-node row-ID lists, the
//     full output of one candidate-network execution.
//   - Counts: canonical compiled-plan key → non-empty-result count,
//     the unit behind diversification's interpretation filtering.
type SharedStore interface {
	GetSelection(table string, col int, bag string) ([]int, bool)
	PutSelection(table string, col int, bag string, rows []int)

	GetPlan(key string) ([][]int, bool)
	PutPlan(key string, footprint []Attr, rows [][]int)

	GetCount(key string) (int, bool)
	PutCount(key string, footprint []Attr, n int)
}

// ChangedAttrs reduces a batch of applied row changes to the set of
// attributes whose cached answers can no longer be trusted, in
// deterministic (table, column) order. An insert or delete stales the
// table's membership and every column (the new/old row's values appear
// in/vanish from all of them); an in-place update stales exactly the
// columns whose value changed. The database provides column counts; it
// must be the post-apply database so tables referenced by the changes
// exist.
func ChangedAttrs(db *Database, changes []RowChange) []Attr {
	type colset struct {
		membership bool
		cols       map[int]bool
	}
	byTable := make(map[string]*colset)
	for _, ch := range changes {
		cs := byTable[ch.Table]
		if cs == nil {
			cs = &colset{cols: make(map[int]bool)}
			byTable[ch.Table] = cs
		}
		if ch.Old == nil || ch.New == nil {
			cs.membership = true
			if t := db.Table(ch.Table); t != nil {
				for ci := range t.Schema.Columns {
					cs.cols[ci] = true
				}
			}
			continue
		}
		for ci := range ch.New {
			if ci >= len(ch.Old) || ch.Old[ci] != ch.New[ci] {
				cs.cols[ci] = true
			}
		}
	}
	var out []Attr
	for table, cs := range byTable {
		if cs.membership {
			out = append(out, Attr{Table: table, Col: MembershipCol})
		}
		for ci := range cs.cols {
			out = append(out, Attr{Table: table, Col: ci})
		}
	}
	sortAttrs(out)
	return out
}

// AllTableAttrs returns every attribute (membership plus each column) of
// the named tables, in deterministic order. Checkpoint compaction uses
// it: compaction rewrites a table's physical RowIDs without changing its
// logical content, so every cached answer mentioning the table — all of
// which speak in RowIDs — must be dropped even though no value changed.
func AllTableAttrs(db *Database, tables []string) []Attr {
	var out []Attr
	for _, name := range tables {
		t := db.Table(name)
		if t == nil {
			continue
		}
		out = append(out, Attr{Table: name, Col: MembershipCol})
		for ci := range t.Schema.Columns {
			out = append(out, Attr{Table: name, Col: ci})
		}
	}
	sortAttrs(out)
	return out
}

func sortAttrs(attrs []Attr) {
	slices.SortFunc(attrs, func(a, b Attr) int {
		if c := strings.Compare(a.Table, b.Table); c != 0 {
			return c
		}
		return cmp.Compare(a.Col, b.Col)
	})
}
