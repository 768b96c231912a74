// Package query implements the structured-query model of Section 3.5:
// keyword queries, structured queries as relational-algebra expressions,
// keyword interpretations (Definition 3.5.3), query templates
// (Definition 3.5.6), complete and partial query interpretations
// (Definition 3.5.4), the sub-query/subsumption relationship
// (Definition 3.5.7), and the translation of interpretations into
// executable join plans.
package query

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/invindex"
	"repro/internal/relstore"
	"repro/internal/schemagraph"
)

// Kind classifies a keyword interpretation (Definition 3.5.3): a keyword
// maps to a value in a predicate, a table name, or an attribute name.
type Kind int

const (
	// KindValue interprets the keyword as an attribute value:
	// σ_{k ∈ A}(Table).
	KindValue Kind = iota
	// KindTable interprets the keyword as a table name (schema term).
	KindTable
	// KindColumn interprets the keyword as an attribute name (schema term).
	KindColumn
	// KindAggregate interprets the keyword as an aggregation operator —
	// the analytical keyword queries of Section 2.2.7, e.g. "number of
	// movies with tom hanks" (Definition 3.5.1's K4), where "number" maps
	// to COUNT over the query's results.
	KindAggregate
)

func (k Kind) String() string {
	switch k {
	case KindValue:
		return "value"
	case KindTable:
		return "table"
	case KindColumn:
		return "column"
	case KindAggregate:
		return "aggregate"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// KeywordInterpretation maps one keyword occurrence of the keyword query to
// one element of a structured query (Definition 3.5.3).
type KeywordInterpretation struct {
	// Pos is the position of the keyword in the keyword query; keyword
	// queries are bags (Definition 3.5.1), so identity is positional.
	Pos int
	// Keyword is the (lower-cased) keyword text.
	Keyword string
	Kind    Kind
	// Attr is set for KindValue and KindColumn.
	Attr invindex.AttrRef
	// Table is set for KindTable.
	Table string
	// Agg names the aggregation operator for KindAggregate ("count").
	Agg string
}

// TargetTable returns the table this interpretation concerns; empty for
// aggregation operators, which apply to the whole query.
func (ki KeywordInterpretation) TargetTable() string {
	switch ki.Kind {
	case KindTable:
		return ki.Table
	case KindAggregate:
		return ""
	default:
		return ki.Attr.Table
	}
}

// Key is a canonical identity string (position-sensitive), e.g.
// "0:hanks=value:actor.name".
func (ki KeywordInterpretation) Key() string {
	var buf [64]byte
	return string(ki.appendKey(buf[:0]))
}

// appendKey appends Key's rendering to b.
func (ki KeywordInterpretation) appendKey(b []byte) []byte {
	b = strconv.AppendInt(b, int64(ki.Pos), 10)
	b = append(b, ':')
	b = append(b, ki.Keyword...)
	switch ki.Kind {
	case KindTable:
		b = append(b, "=table:"...)
		return append(b, ki.Table...)
	case KindColumn:
		b = append(b, "=column:"...)
	case KindAggregate:
		b = append(b, "=agg:"...)
		return append(b, ki.Agg...)
	default:
		b = append(b, "=value:"...)
	}
	b = append(b, ki.Attr.Table...)
	b = append(b, '.')
	return append(b, ki.Attr.Column...)
}

// Describe renders the interpretation as a user-facing question fragment,
// e.g. `"hanks" is a value of actor.name` — the phrasing of the query
// construction options in Figure 3.1.
func (ki KeywordInterpretation) Describe() string {
	switch ki.Kind {
	case KindTable:
		return fmt.Sprintf("%q refers to the %s table", ki.Keyword, ki.Table)
	case KindColumn:
		return fmt.Sprintf("%q refers to the attribute %s", ki.Keyword, ki.Attr)
	case KindAggregate:
		return fmt.Sprintf("%q asks for the %s of the results", ki.Keyword, ki.Agg)
	default:
		return fmt.Sprintf("%q is a value of %s", ki.Keyword, ki.Attr)
	}
}

// Template is a pre-computed query pattern (Definition 3.5.6): a join tree
// whose predicates are variables. ID indexes into the template catalogue.
// The tree must not change once the template is built: NewTemplate
// derives the facts below from it once, and generation reads them for
// every candidate binding.
type Template struct {
	ID   int
	Tree *schemagraph.JoinTree

	occurrences []tableOccurrences // one per distinct table, first-seen order
	canonical   string             // Tree.Canonical()
	leaves      []int              // occurrences of degree ≤ 1, ascending
	leafIndex   []int              // by occurrence: its index in leaves, or -1
	shape       *relstore.PlanShape
	text        templateText // the renderings' fixed text
}

// tableOccurrences lists the occurrence indexes of one table in a
// template. A template has a handful of tables, so Occurrences scans
// these linearly instead of hashing the name.
type tableOccurrences struct {
	table string
	occs  []int
}

// NewTemplate wraps a join tree as a template.
func NewTemplate(id int, tree *schemagraph.JoinTree) *Template {
	t := &Template{ID: id, Tree: tree, canonical: tree.Canonical(), text: newTemplateText(tree)}
	for i, name := range tree.Tables {
		k := slices.IndexFunc(t.occurrences, func(o tableOccurrences) bool { return o.table == name })
		if k < 0 {
			k = len(t.occurrences)
			t.occurrences = append(t.occurrences, tableOccurrences{table: name})
		}
		t.occurrences[k].occs = append(t.occurrences[k].occs, i)
	}
	deg := make([]int, len(tree.Tables))
	edges := make([]relstore.JoinEdge, len(tree.TreeEdges))
	for i, e := range tree.TreeEdges {
		deg[e.From]++
		deg[e.To]++
		edges[i] = relstore.JoinEdge{From: e.From, To: e.To, FromColumn: e.FromColumn, ToColumn: e.ToColumn}
	}
	t.shape = relstore.NewPlanShape(tree.Tables, edges)
	t.leafIndex = make([]int, len(deg))
	for i, d := range deg {
		t.leafIndex[i] = -1
		if d <= 1 {
			t.leafIndex[i] = len(t.leaves)
			t.leaves = append(t.leaves, i)
		}
	}
	return t
}

// Occurrences returns the occurrence indexes of the table in the template.
func (t *Template) Occurrences(table string) []int {
	for _, o := range t.occurrences {
		if o.table == table {
			return o.occs
		}
	}
	return nil
}

// Size returns the number of table occurrences.
func (t *Template) Size() int { return t.Tree.Size() }

// String renders the template's join structure.
func (t *Template) String() string { return t.Tree.String() }

// Binding places one keyword interpretation onto a template occurrence.
// KI points at the candidate it binds; GenerateCompleteContext points it
// into the request's Candidates.PerKeyword, which must not change while
// the interpretations are in use.
type Binding struct {
	KI *KeywordInterpretation
	// Occ is the occurrence index within the interpretation's template.
	Occ int
}

// Interpretation is a (partial or complete) query interpretation
// (Definition 3.5.4): a template plus a set of keyword bindings. An
// interpretation is complete when every keyword of the query is bound.
// An interpretation is read-only once built, except a
// StreamCompleteContext view and a CopyFrom target: its key is memoised,
// and a generated one carries its place in its generation's key order.
type Interpretation struct {
	// Keywords is the full keyword query being interpreted.
	Keywords []string
	Template *Template
	// Bindings are sorted by keyword position.
	Bindings []Binding

	key atomic.Pointer[string]
	// first and ranks are set by GenerateCompleteContext and
	// StreamCompleteContext (see CompareKey): first is one interpretation
	// of the call that every other one (and every CopyFrom copy) shares,
	// so it names the call; ranks[0] is the template's rank in its
	// catalogue and ranks[1+i] binding i's candidate rank, both in key
	// order. first is nil when the ranks cannot order the keys.
	first *Interpretation
	ranks []int32
}

// NewSlots returns n empty interpretations for CopyFrom to fill, each
// with room for m bindings, so copies of m-binding interpretations into
// them allocate nothing.
func NewSlots(n, m int) []Interpretation {
	slots := make([]Interpretation, n)
	bindings := make([]Binding, n*m)
	ranks := make([]int32, n*(m+1))
	for i := range slots {
		slots[i].Bindings = bindings[i*m : i*m : (i+1)*m]
		slots[i].ranks = ranks[i*(m+1) : i*(m+1) : (i+1)*(m+1)]
	}
	return slots
}

// CopyFrom makes q a copy of v that outlives it, such as a kept copy of a
// StreamCompleteContext view, reusing q's binding storage. Whatever key q
// had memoised is dropped. q must not be in use by another goroutine.
func (q *Interpretation) CopyFrom(v *Interpretation) {
	q.Keywords, q.Template, q.first = v.Keywords, v.Template, v.first
	q.Bindings = append(q.Bindings[:0], v.Bindings...)
	q.ranks = append(q.ranks[:0], v.ranks...)
	q.resetKey()
}

// resetKey drops the memoised key of an interpretation whose bindings
// changed.
func (q *Interpretation) resetKey() {
	if q.key.Load() != nil {
		q.key.Store(nil)
	}
}

// NewInterpretation assembles an interpretation, sorting bindings by
// keyword position.
func NewInterpretation(keywords []string, tpl *Template, bindings []Binding) *Interpretation {
	bs := slices.Clone(bindings)
	slices.SortFunc(bs, func(a, b Binding) int {
		if c := cmp.Compare(a.KI.Pos, b.KI.Pos); c != 0 {
			return c
		}
		return cmp.Compare(a.Occ, b.Occ)
	})
	return &Interpretation{Keywords: keywords, Template: tpl, Bindings: bs}
}

// IsComplete reports whether every keyword of the query is bound
// (a complete interpretation per Definition 3.5.4).
func (q *Interpretation) IsComplete() bool { return len(q.Bindings) == len(q.Keywords) }

// Minimal reports whether the interpretation binds every leaf occurrence
// (degree ≤ 1) of its template, which also grounds it: the minimality
// condition of Definition 3.5.4(2), under which no part of the template
// could be removed. GenerateCompleteContext emits only minimal
// interpretations.
func (q *Interpretation) Minimal() bool {
	if q.Template == nil || len(q.Template.leaves) == 0 {
		return false
	}
	for _, leaf := range q.Template.leaves {
		if !slices.ContainsFunc(q.Bindings, func(b Binding) bool { return b.Occ == leaf }) {
			return false
		}
	}
	return true
}

// Aggregate returns the aggregation operator of the interpretation
// ("count") or "" for plain retrieval queries.
func (q *Interpretation) Aggregate() string {
	for _, b := range q.Bindings {
		if b.KI.Kind == KindAggregate {
			return b.KI.Agg
		}
	}
	return ""
}

// Key returns a canonical identity for deduplication: template identity
// (by canonical tree form) plus the bindings, e.g.
// "actor()|0:hanks=value:actor.name@0;". Generation renders no keys; the
// first call renders it and memoises it atomically, so concurrent readers
// of one interpretation may call Key.
func (q *Interpretation) Key() string {
	if k := q.key.Load(); k != nil {
		return *k
	}
	var buf [256]byte
	b := buf[:0]
	if q.Template != nil {
		b = append(b, q.Template.canonical...)
	}
	b = append(b, '|')
	for _, bd := range q.Bindings {
		b = bd.KI.appendKey(b)
		b = append(b, '@')
		b = strconv.AppendInt(b, int64(bd.Occ), 10)
		b = append(b, ';')
	}
	k := string(b)
	q.key.Store(&k)
	return k
}

// CompareKey orders two interpretations exactly as strings.Compare orders
// their keys. Two interpretations of one GenerateCompleteContext or
// StreamCompleteContext call (views and copies of views included)
// compare by integers: the template's rank over its canonical form
// followed by '|', then per position the candidate's rank over its
// "pos:keyword=kind:target@" rendering, then the occurrence. Any other
// pair compares its keys.
func CompareKey(a, b *Interpretation) int {
	if a.first == nil || a.first != b.first {
		return strings.Compare(a.Key(), b.Key())
	}
	if c := cmp.Compare(a.ranks[0], b.ranks[0]); c != 0 {
		return c
	}
	for i := range a.Bindings {
		if c := cmp.Compare(a.ranks[1+i], b.ranks[1+i]); c != 0 {
			return c
		}
		if c := compareOcc(a.Bindings[i].Occ, b.Bindings[i].Occ); c != 0 {
			return c
		}
	}
	return 0
}

// compareOcc orders two occurrences as their key renderings "<occ>;"
// order: decimal strings, so 10 sorts before 2.
func compareOcc(a, b int) int {
	if a == b {
		return 0
	}
	var abuf, bbuf [24]byte
	return bytes.Compare(
		append(strconv.AppendInt(abuf[:0], int64(a), 10), ';'),
		append(strconv.AppendInt(bbuf[:0], int64(b), 10), ';'))
}

// HasBinding reports whether the interpretation uses the given keyword
// interpretation (occurrence-insensitive: the same element identity).
func (q *Interpretation) HasBinding(ki KeywordInterpretation) bool {
	for _, b := range q.Bindings {
		if *b.KI == ki {
			return true
		}
	}
	return false
}

// JoinPlan translates a complete or partial interpretation with a template
// into an executable join plan of the template's prepared shape: value
// bindings grouped per occurrence and column become containment
// predicates (Definition 3.5.2). A node's predicates are in column-name
// order and each predicate's keywords in binding order. The plan's edges
// are the shape's, shared by every plan of the template: read-only.
func (q *Interpretation) JoinPlan() (*relstore.JoinPlan, error) {
	if q.Template == nil {
		return nil, errNoTemplate
	}
	tree := q.Template.Tree
	for _, b := range q.Bindings {
		if b.KI.Kind != KindValue {
			continue
		}
		if b.Occ < 0 || b.Occ >= tree.Size() {
			return nil, fmt.Errorf("query: binding occurrence %d out of range", b.Occ)
		}
		if tree.Tables[b.Occ] != b.KI.Attr.Table {
			return nil, fmt.Errorf("query: binding table %s does not match occurrence table %s",
				b.KI.Attr.Table, tree.Tables[b.Occ])
		}
	}
	var buf [8]valueBinding
	vals := q.valueBindings(buf[:0])
	plan := q.Template.shape.NewPlan()
	if len(vals) == 0 {
		return plan, nil
	}
	// Every predicate and every keyword of the plan share one array each;
	// the slices handed out are capped, so no append reaches a neighbour.
	preds := make([]relstore.Predicate, 0, len(vals))
	kws := make([]string, len(vals))
	for i, first := 0, 0; i < len(vals); {
		occ, j := vals[i].occ, i
		for j < len(vals) && vals[j].occ == occ && vals[j].col == vals[i].col {
			kws[j] = vals[j].kw
			j++
		}
		preds = append(preds, relstore.Predicate{Column: vals[i].col, Keywords: kws[i:j:j]})
		if j == len(vals) || vals[j].occ != occ {
			plan.Nodes[occ].Predicates = preds[first:len(preds):len(preds)]
			first = len(preds)
		}
		i = j
	}
	return plan, nil
}

// Option is a query construction option: a partial interpretation offered
// to the user for acceptance or rejection (Section 3.5.4). Options are
// sets of keyword interpretations without template commitment — the form
// presented in the IQP interface ("Hanks is an actor's name").
type Option struct {
	KIs []KeywordInterpretation
}

// NewOption builds an option over the given keyword interpretations.
func NewOption(kis ...KeywordInterpretation) Option {
	cp := make([]KeywordInterpretation, len(kis))
	copy(cp, kis)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Key() < cp[j].Key() })
	return Option{KIs: cp}
}

// Key returns a canonical identity string.
func (o Option) Key() string {
	parts := make([]string, len(o.KIs))
	for i, ki := range o.KIs {
		parts[i] = ki.Key()
	}
	return strings.Join(parts, "&")
}

// Describe renders the option as the question shown to the user.
func (o Option) Describe() string {
	parts := make([]string, len(o.KIs))
	for i, ki := range o.KIs {
		parts[i] = ki.Describe()
	}
	return strings.Join(parts, " and ")
}

// Subsumes reports whether the option subsumes the interpretation: every
// keyword interpretation of the option is used by the interpretation.
// Accepting the option keeps exactly the subsumed interpretations;
// rejecting it removes them (Definition 3.5.8).
func (o Option) Subsumes(q *Interpretation) bool {
	for _, ki := range o.KIs {
		if !q.HasBinding(ki) {
			return false
		}
	}
	return true
}
