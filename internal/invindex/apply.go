package invindex

import (
	"maps"
	"slices"
	"sort"

	"repro/internal/relstore"
)

// This file implements incremental index maintenance: Index.Apply folds a
// relstore change log into a copy-on-write clone of the index, patching
// exactly the postings, per-attribute statistics, and dictionary entries
// the changed cell values touch. The result is indistinguishable from
// Build over the post-change database — the differential tests enforce
// equality of every statistic the ranking model reads — at a cost
// proportional to the changed values' token counts, not the corpus size.
//
// Copy-on-write discipline: the postings map and a touched attribute's
// term statistics are cow.Maps, so cloning them shares every shard and a
// write copies only the shard it lands in; an inner per-term posting
// map, a Posting, or an attrStats is cloned at most once per batch, the
// first time a change touches it; row lists are replaced functionally;
// the term dictionary copies only the chunks a new or vanished term
// lands in. Nothing reachable from the source index is ever written, so
// readers of the pre-change snapshot stay consistent.

// applyState tracks which nested structures have been cloned during one
// Apply batch, so repeated touches patch the batch-local copy in place.
type applyState struct {
	ix           *Index
	clonedTerms  map[string]bool // postings inner maps cloned this batch
	clonedPosts  map[string]map[string]bool
	clonedStats  map[int]bool    // attribute positions cloned this batch
	touchedTerms map[string]bool // terms needing a dictionary re-check
}

// Apply returns a new index over newDB with the change log folded in.
// The receiver is never modified. newDB must be the database the changes
// were applied to (relstore.Database.Apply returns both).
func (ix *Index) Apply(newDB *relstore.Database, changes []relstore.RowChange) *Index {
	nix := &Index{
		db:            newDB,
		postings:      ix.postings.Clone(),
		attrs:         ix.attrs,
		attrPos:       ix.attrPos,
		stats:         slices.Clone(ix.stats),
		schemaTables:  ix.schemaTables,
		schemaColumns: ix.schemaColumns,
		dict:          ix.dict,
		totalDocs:     ix.totalDocs,
	}
	st := &applyState{
		ix:           nix,
		clonedTerms:  make(map[string]bool),
		clonedPosts:  make(map[string]map[string]bool),
		clonedStats:  make(map[int]bool),
		touchedTerms: make(map[string]bool),
	}
	for _, ch := range changes {
		t := newDB.Table(ch.Table)
		if t == nil {
			continue
		}
		for ci, col := range t.Schema.Columns {
			if !col.Indexed {
				continue
			}
			attr := AttrRef{Table: ch.Table, Column: col.Name}
			switch {
			case ch.Old == nil: // insert
				st.addDoc(attr)
				st.addValue(attr, ch.RowID, ch.New[ci])
			case ch.New == nil: // delete
				st.removeDoc(attr)
				st.removeValue(attr, ch.RowID, ch.Old[ci])
			default: // update
				if ch.Old[ci] == ch.New[ci] {
					continue
				}
				st.removeValue(attr, ch.RowID, ch.Old[ci])
				st.addValue(attr, ch.RowID, ch.New[ci])
			}
		}
	}
	st.finish(ix)
	return nix
}

// statsFor returns the batch-local attrStats clone for the attribute.
func (st *applyState) statsFor(attr AttrRef) *attrStats {
	i, ok := st.ix.attrPos[attr]
	if !ok {
		return nil
	}
	s := st.ix.stats[i]
	if !st.clonedStats[i] {
		s = &attrStats{
			totalTokens: s.totalTokens,
			vocabulary:  s.vocabulary,
			docs:        s.docs,
			terms:       s.terms.Clone(),
		}
		st.ix.stats[i] = s
		st.clonedStats[i] = true
	}
	return s
}

// addDoc / removeDoc account one attribute value (document) appearing or
// disappearing — independent of its token content, exactly as Build
// counts every row of every indexed attribute.
func (st *applyState) addDoc(attr AttrRef) {
	if s := st.statsFor(attr); s != nil {
		s.docs++
		st.ix.totalDocs++
	}
}

func (st *applyState) removeDoc(attr AttrRef) {
	if s := st.statsFor(attr); s != nil {
		s.docs--
		st.ix.totalDocs--
	}
}

// postingFor returns a batch-local clone of the (term, attr) posting,
// creating it when absent, together with the cloned inner map.
func (st *applyState) postingFor(term string, attr AttrRef) (map[string]*Posting, *Posting) {
	st.touchedTerms[term] = true
	inner := st.ix.postings.Get(term)
	if inner == nil || !st.clonedTerms[term] {
		if inner == nil {
			inner = make(map[string]*Posting)
		} else {
			inner = maps.Clone(inner)
		}
		st.ix.postings.Edit(term)[term] = inner
		st.clonedTerms[term] = true
	}
	key := attr.String()
	p := inner[key]
	cloned := st.clonedPosts[term]
	if cloned == nil {
		cloned = make(map[string]bool)
		st.clonedPosts[term] = cloned
	}
	if p == nil {
		p = &Posting{Attr: attr}
		inner[key] = p
		cloned[key] = true
	} else if !cloned[key] {
		np := &Posting{Attr: p.Attr, Count: p.Count, DocCount: p.DocCount, Rows: p.Rows, rowsTail: p.rowsTail}
		inner[key] = np
		cloned[key] = true
		p = np
	}
	return inner, p
}

// tokenCounts tokenizes one cell value into its distinct tokens with
// their occurrence counts, and reports the total token count.
func tokenCounts(value string) (map[string]int, int) {
	toks := relstore.Tokenize(value)
	counts := make(map[string]int, len(toks))
	for _, tok := range toks {
		counts[tok]++
	}
	return counts, len(toks)
}

// addValue folds one cell value into the postings and statistics.
func (st *applyState) addValue(attr AttrRef, row int, value string) {
	counts, n := tokenCounts(value)
	if n == 0 {
		return
	}
	s := st.statsFor(attr)
	if s == nil {
		return
	}
	s.totalTokens += n
	for tok, c := range counts {
		sh := s.terms.Edit(tok)
		sh[tok] = termFreq{count: sh[tok].count + c, docs: sh[tok].docs + 1}
		_, p := st.postingFor(tok, attr)
		p.Count += c
		p.DocCount++
		p.Rows, p.rowsTail = relstore.InsertRow(p.Rows, p.rowsTail, row)
	}
}

// removeValue removes one cell value's contribution, dropping entries
// that reach zero so the maintained maps match a fresh Build exactly
// (vocabulary sizes and Contains both depend on absent-vs-zero).
func (st *applyState) removeValue(attr AttrRef, row int, value string) {
	counts, n := tokenCounts(value)
	if n == 0 {
		return
	}
	s := st.statsFor(attr)
	if s == nil {
		return
	}
	s.totalTokens -= n
	key := attr.String()
	for tok, c := range counts {
		sh := s.terms.Edit(tok)
		if f := (termFreq{count: sh[tok].count - c, docs: sh[tok].docs - 1}); f.docs > 0 {
			sh[tok] = f
		} else {
			delete(sh, tok)
		}
		inner, p := st.postingFor(tok, attr)
		p.Count -= c
		p.DocCount--
		p.Rows, p.rowsTail = relstore.SortedRemove(p.Rows, row), nil
		if p.DocCount <= 0 {
			delete(inner, key)
			if len(inner) == 0 {
				delete(st.ix.postings.Edit(tok), tok)
			}
		}
	}
}

// finish recounts vocabularies of the touched attributes and patches the
// sorted term dictionary with the terms that appeared or vanished
// relative to the pre-batch index.
func (st *applyState) finish(old *Index) {
	for i := range st.clonedStats {
		s := st.ix.stats[i]
		s.vocabulary = s.terms.Len()
	}
	var added, removed []string
	for term := range st.touchedTerms {
		_, now := st.ix.postings.Lookup(term)
		_, was := old.postings.Lookup(term)
		switch {
		case now && !was:
			added = append(added, term)
		case was && !now:
			removed = append(removed, term)
		}
	}
	if len(added) == 0 && len(removed) == 0 {
		return
	}
	sort.Strings(added)
	sort.Strings(removed)
	st.ix.dict = old.dict.patched(added, removed)
}
