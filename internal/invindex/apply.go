package invindex

import (
	"sort"

	"repro/internal/relstore"
)

// Apply returns a new index over newDB with the change log folded in.
// The receiver is never modified. newDB must be the database the changes
// were applied to (relstore.Database.Apply returns both): the statistics
// are newDB's column postings, so Apply only re-resolves the column
// handles and patches the sorted term dictionary. It tokenizes the
// changed cell values to find the terms that may have appeared or
// vanished, at a cost proportional to those values, not the corpus. The
// dictionary copies only the chunks such a term lands in.
func (ix *Index) Apply(newDB *relstore.Database, changes []relstore.RowChange) *Index {
	nix := *ix
	nix.cols = resolve(newDB, ix.attrs)

	touched := make(map[string]bool)
	for _, ch := range changes {
		t := newDB.Table(ch.Table)
		if t == nil {
			continue
		}
		for ci, col := range t.Schema.Columns {
			if !col.Indexed || (ch.Old != nil && ch.New != nil && ch.Old[ci] == ch.New[ci]) {
				continue
			}
			for _, vals := range [][]string{ch.Old, ch.New} {
				if vals != nil {
					for _, tok := range relstore.Tokenize(vals[ci]) {
						touched[tok] = true
					}
				}
			}
		}
	}
	var added, removed []string
	for term := range touched {
		switch now, was := nix.has(term), ix.has(term); {
		case now && !was:
			added = append(added, term)
		case was && !now:
			removed = append(removed, term)
		}
	}
	if len(added) > 0 || len(removed) > 0 {
		sort.Strings(added)
		sort.Strings(removed)
		nix.dict = ix.dict.patched(added, removed)
	}
	return &nix
}
