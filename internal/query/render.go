package query

import (
	"cmp"
	"errors"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/schemagraph"
)

// templateText is the fixed text of a template's renderings, which
// NewTemplate computes once: the SQL FROM list ("movie AS t0, acts AS
// t1, …") and the join conditions joined by " AND ". The algebra form's
// fixed text is the tree's per-occurrence table names. Rendering an
// interpretation appends only its predicates to these.
type templateText struct {
	from, joins string
}

func newTemplateText(tree *schemagraph.JoinTree) templateText {
	var b []byte
	for i, table := range tree.Tables {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, table...)
		b = append(b, " AS t"...)
		b = strconv.AppendInt(b, int64(i), 10)
	}
	from := string(b)
	b = b[:0]
	for i, e := range tree.TreeEdges {
		if i > 0 {
			b = append(b, " AND "...)
		}
		b = appendAliased(b, e.From, e.FromColumn)
		b = append(b, " = "...)
		b = appendAliased(b, e.To, e.ToColumn)
	}
	return templateText{from: from, joins: string(b)}
}

// appendAliased appends "t<occ>.<column>".
func appendAliased(b []byte, occ int, column string) []byte {
	b = append(b, 't')
	b = strconv.AppendInt(b, int64(occ), 10)
	b = append(b, '.')
	return append(b, column...)
}

// valueBinding is one value binding as the renderings and JoinPlan group
// it.
type valueBinding struct {
	occ     int
	col, kw string
}

// valueBindings appends the interpretation's value bindings to buf,
// grouped by (occurrence, column): a stable sort keeps each group's
// keywords in binding order, and each group is one run. JoinPlan, SQL and
// String all read the predicates in this order.
func (q *Interpretation) valueBindings(buf []valueBinding) []valueBinding {
	vals := buf
	for _, b := range q.Bindings {
		if b.KI.Kind == KindValue {
			vals = append(vals, valueBinding{occ: b.Occ, col: b.KI.Attr.Column, kw: b.KI.Keyword})
		}
	}
	slices.SortStableFunc(vals, func(a, b valueBinding) int {
		return cmp.Or(cmp.Compare(a.occ, b.occ), strings.Compare(a.col, b.col))
	})
	return vals
}

var errNoTemplate = errors.New("query: interpretation has no template")

// SQL renders the interpretation as the SQL statement the thesis
// associates with every candidate network (Section 2.2.6: "a candidate
// network corresponds to a single SQL statement that joins the tables as
// specified in the CN tree, and selects those rows that contain the
// keywords"). Containment predicates are rendered with LIKE per keyword;
// aggregate interpretations wrap the statement in COUNT.
//
// Occurrences are aliased t0, t1, … in template order so self-joins are
// unambiguous. The projection is SELECT * (the thesis's IQP returns all
// referred attributes, Section 3.5.1).
func (q *Interpretation) SQL() (string, error) {
	if q.Template == nil {
		return "", errNoTemplate
	}
	_, sql := q.render(false, true)
	return sql, nil
}

// String renders the interpretation in the relational-algebra style of the
// thesis, e.g. σ_{hanks}⊂name(actor) ⋈ acts ⋈ σ_{2001}⊂year(movie).
// Template-less interpretations render their keyword interpretations.
func (q *Interpretation) String() string {
	if q.Template == nil {
		parts := make([]string, len(q.Bindings))
		for i, b := range q.Bindings {
			parts[i] = b.KI.Describe()
		}
		return "{" + strings.Join(parts, "; ") + "}"
	}
	algebra, _ := q.render(true, false)
	return algebra
}

// Render returns String and SQL together, rendered into one buffer: one
// allocation for both. A template-less interpretation has no SQL and
// fails as SQL does.
func (q *Interpretation) Render() (algebra, sql string, err error) {
	if q.Template == nil {
		return q.String(), "", errNoTemplate
	}
	algebra, sql = q.render(true, true)
	return algebra, sql, nil
}

// render renders the algebra form, the SQL or both into one stack
// buffer; the string made from it is the only allocation while they fit
// (the demo data's longest pair is 385 bytes).
func (q *Interpretation) render(algebra, sql bool) (string, string) {
	var vbuf [8]valueBinding
	vals := q.valueBindings(vbuf[:0])
	agg := q.Aggregate()
	var buf [512]byte
	b := buf[:0]
	if algebra {
		b = q.appendAlgebra(b, vals, agg)
	}
	split := len(b)
	if sql {
		b = q.appendSQL(b, vals, agg)
	}
	s := string(b)
	return s[:split], s[split:]
}

// appendSQL appends the statement: the template's FROM list and join
// conditions, then one LIKE per value binding, grouped by occurrence and
// column.
func (q *Interpretation) appendSQL(b []byte, vals []valueBinding, agg string) []byte {
	if agg != "" {
		b = append(b, "SELECT COUNT(*) FROM "...)
	} else {
		b = append(b, "SELECT * FROM "...)
	}
	text := &q.Template.text
	b = append(b, text.from...)
	if text.joins == "" && len(vals) == 0 {
		return b
	}
	b = append(b, " WHERE "...)
	b = append(b, text.joins...)
	for i, v := range vals {
		if i > 0 || text.joins != "" {
			b = append(b, " AND "...)
		}
		b = appendAliased(b, v.occ, v.col)
		b = append(b, " LIKE '%"...)
		b = appendEscaped(b, v.kw)
		b = append(b, "%'"...)
	}
	return b
}

// appendAlgebra appends the occurrences joined by " ⋈ ": a bare table,
// or σ_ over its predicates, "{k1,k2}⊂column" per column in column order
// joined by "∧". An aggregate wraps the whole in its upper-cased name.
func (q *Interpretation) appendAlgebra(b []byte, vals []valueBinding, agg string) []byte {
	if agg != "" {
		b = appendUpper(b, agg)
		b = append(b, '(')
	}
	j := 0
	for j < len(vals) && vals[j].occ < 0 {
		j++
	}
	for i, table := range q.Template.Tree.Tables {
		if i > 0 {
			b = append(b, " ⋈ "...)
		}
		if j == len(vals) || vals[j].occ != i {
			b = append(b, table...)
			continue
		}
		b = append(b, "σ_"...)
		for first := true; j < len(vals) && vals[j].occ == i; first = false {
			if !first {
				b = append(b, "∧"...)
			}
			b = append(b, '{')
			col := vals[j].col
			for k := j; j < len(vals) && vals[j].occ == i && vals[j].col == col; j++ {
				if j > k {
					b = append(b, ',')
				}
				b = append(b, vals[j].kw...)
			}
			b = append(b, "}⊂"...)
			b = append(b, col...)
		}
		b = append(b, '(')
		b = append(b, table...)
		b = append(b, ')')
	}
	if agg != "" {
		b = append(b, ')')
	}
	return b
}

// appendEscaped appends s as the body of an SQL string literal: single
// quotes doubled.
func appendEscaped(b []byte, s string) []byte {
	for {
		i := strings.IndexByte(s, '\'')
		if i < 0 {
			return append(b, s...)
		}
		b = append(b, s[:i+1]...)
		b = append(b, '\'')
		s = s[i+1:]
	}
}

// appendUpper appends s upper-cased as strings.ToUpper does; ASCII
// needs no intermediate string.
func appendUpper(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return append(b, strings.ToUpper(s)...)
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		b = append(b, c)
	}
	return b
}
