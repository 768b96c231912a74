package invindex

import (
	"fmt"
	"sort"

	"repro/internal/durable"
	"repro/internal/relstore"
)

// This file implements the inverted index's snapshot codec. The index
// is the most expensive derived structure to rebuild (it tokenises the
// whole corpus), so engine snapshots persist it rather than re-deriving
// it on open. Serialised state: the per-attribute unigram statistics
// and the term postings — everything the ranking model reads. The
// sorted term dictionary is re-derived from the postings keys (it is
// exactly their sorted set), and schema-term match tables are rebuilt
// from the database schema, both cheap and deterministic.
//
// Determinism: attributes are encoded in index order, terms and
// attribute keys sorted, so the same index always encodes to the same
// bytes, and a decoded index re-encodes identically.

// EncodeSnapshot appends the index's snapshot encoding to e.
func (ix *Index) EncodeSnapshot(e *durable.Enc) {
	e.Uvarint(uint64(len(ix.attrs)))
	for _, a := range ix.attrs {
		e.String(a.Table)
		e.String(a.Column)
	}
	e.Uvarint(uint64(ix.totalDocs))

	// Per-attribute statistics, in attribute order.
	for _, st := range ix.stats {
		e.Uvarint(uint64(st.totalTokens))
		e.Uvarint(uint64(st.docs))
		terms := make([]string, 0, st.terms.Len())
		for term := range st.terms.All() {
			terms = append(terms, term)
		}
		sort.Strings(terms)
		e.Uvarint(uint64(len(terms)))
		for _, term := range terms {
			f := st.terms.Get(term)
			e.String(term)
			e.Uvarint(uint64(f.count))
			e.Uvarint(uint64(f.docs))
		}
	}

	// Postings: term → attribute index → posting, everything sorted; the
	// dictionary is the postings key set in order.
	attrIdx := make(map[string]int, len(ix.attrs))
	for i, a := range ix.attrs {
		attrIdx[a.String()] = i
	}
	e.Uvarint(uint64(ix.dict.n))
	for term := range ix.dict.all() {
		pmap := ix.postings.Get(term)
		keys := make([]string, 0, len(pmap))
		for k := range pmap {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e.String(term)
		e.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			p := pmap[k]
			e.Uvarint(uint64(attrIdx[k]))
			e.Uvarint(uint64(p.Count))
			e.Uvarint(uint64(p.DocCount))
			e.Ints(p.Rows)
		}
	}
}

// DecodeSnapshot reconstructs an index over db from its snapshot
// encoding. db must be the database the index was built over (the
// engine decodes the database section first); attribute identity is
// cross-checked against its schema.
func DecodeSnapshot(d *durable.Dec, db *relstore.Database) (*Index, error) {
	// The schema-derived index skeleton carries the attribute list and
	// the schema-term match tables; the encoded attribute list must
	// match it exactly — it is what ties stats and postings to real
	// columns.
	ix := newIndex(db)
	nattrs := int(d.Uvarint())
	var got []AttrRef
	for i := 0; i < nattrs && d.Err() == nil; i++ {
		got = append(got, AttrRef{Table: d.String(), Column: d.String()})
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("invindex: decode snapshot: %w", err)
	}
	if len(got) != len(ix.attrs) {
		return nil, fmt.Errorf("invindex: decode snapshot: %d attributes, schema has %d", len(got), len(ix.attrs))
	}
	for i, want := range ix.attrs {
		if got[i] != want {
			return nil, fmt.Errorf("invindex: decode snapshot: attribute %d is %s, schema says %s",
				i, got[i], want)
		}
	}
	ix.totalDocs = int(d.Uvarint())

	for _, st := range ix.stats {
		st.totalTokens = int(d.Uvarint())
		st.docs = int(d.Uvarint())
		nterms := int(d.Uvarint())
		for i := 0; i < nterms && d.Err() == nil; i++ {
			term := d.String()
			st.terms.Edit(term)[term] = termFreq{count: int(d.Uvarint()), docs: int(d.Uvarint())}
		}
		st.vocabulary = st.terms.Len()
	}

	nterms := int(d.Uvarint())
	terms := make([]string, 0, min(nterms, d.Remaining()))
	for i := 0; i < nterms && d.Err() == nil; i++ {
		term := d.String()
		nposts := int(d.Uvarint())
		pmap := make(map[string]*Posting, min(nposts, d.Remaining()))
		for j := 0; j < nposts && d.Err() == nil; j++ {
			ai := int(d.Uvarint())
			if ai < 0 || ai >= len(ix.attrs) {
				return nil, fmt.Errorf("invindex: decode snapshot: term %q: attribute index %d out of range", term, ai)
			}
			attr := ix.attrs[ai]
			pmap[attr.String()] = &Posting{
				Attr:     attr,
				Count:    int(d.Uvarint()),
				DocCount: int(d.Uvarint()),
				Rows:     d.Ints(),
			}
		}
		ix.postings.Edit(term)[term] = pmap
		terms = append(terms, term)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("invindex: decode snapshot: %w", err)
	}
	// The term dictionary is the sorted postings key set; terms were
	// encoded sorted, so re-sorting is a no-op guard on corrupt input.
	sort.Strings(terms)
	ix.dict = newDictionary(terms)
	return ix, nil
}
