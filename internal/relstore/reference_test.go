package relstore

import (
	"fmt"
)

// This file keeps the original scan-based evaluation paths as reference
// implementations. They compute selections by tokenizing every cell and
// execute join plans with map-based candidate membership — exactly the
// semantics the posting-list engine must reproduce — so that the
// differential tests can compare the optimised paths against a
// straightforward oracle, and the counted work guard can set the posting
// path's work against the rows a scan reads.

// SelectContainsScan is the scan-based reference of SelectContains: it
// tokenizes every row value and applies the bag-containment predicate
// row by row. The column position is resolved once, outside the row loop.
func (t *Table) SelectContainsScan(column string, keywords []string) []int {
	ci := t.Schema.ColumnIndex(column)
	if ci < 0 {
		return nil
	}
	var out []int
	for id, r := range t.Rows() {
		if ContainsBag(r.Values[ci], keywords) {
			out = append(out, id)
		}
	}
	return out
}

// candidateRowsScan is the scan-based reference of the per-node candidate
// computation: rows satisfying all predicates, all rows when
// unconstrained. Predicate columns are resolved once before the row loop;
// a predicate naming an unknown column matches nothing.
func (t *Table) candidateRowsScan(preds []Predicate) []int {
	if len(preds) == 0 {
		return t.allRowIDs()
	}
	cols := make([]int, len(preds))
	for i, p := range preds {
		cols[i] = t.Schema.ColumnIndex(p.Column)
		if cols[i] < 0 {
			return nil
		}
	}
	var out []int
rows:
	for id, r := range t.Rows() {
		for i, p := range preds {
			if !ContainsBag(r.Values[cols[i]], p.Keywords) {
				continue rows
			}
		}
		out = append(out, id)
	}
	return out
}

// ExecuteScan is the original scan-based executor, kept as the reference
// implementation: per-node candidates by full table scans, map[int]bool
// candidate membership, no semi-join reduction, string-keyed column
// resolution per joined row. Execute must produce the identical JTT
// sequence (the differential tests enforce this). opts.Cache is ignored
// — the scan path memoises nothing.
func (db *Database) ExecuteScan(p *JoinPlan, opts ExecuteOptions) ([]JTT, error) {
	jtts, _, err := db.ExecuteScanWork(p, opts)
	return jtts, err
}

// ScanWork is the reference executor's work on one plan: the live rows
// its candidate scans read (every row of each constrained node's table,
// up to the first empty node) and the join partners its enumeration
// looked up.
type ScanWork struct{ RowsRead, Probes int }

// ExecuteScanWork is ExecuteScan that also reports its work.
func (db *Database) ExecuteScanWork(p *JoinPlan, opts ExecuteOptions) ([]JTT, ScanWork, error) {
	var w ScanWork
	if err := p.Validate(); err != nil {
		return nil, w, err
	}
	n := len(p.Nodes)
	cands := make([][]int, n)
	for i, node := range p.Nodes {
		t := db.Table(node.Table)
		if t == nil {
			return nil, w, fmt.Errorf("relstore: join plan references unknown table %s", node.Table)
		}
		if len(node.Predicates) > 0 {
			w.RowsRead += t.NumLive()
		}
		cands[i] = t.candidateRowsScan(node.Predicates)
		if len(cands[i]) == 0 {
			return nil, w, nil
		}
	}

	root := 0
	for i := 1; i < n; i++ {
		if len(cands[i]) < len(cands[root]) {
			root = i
		}
	}

	type halfEdge struct {
		to             int
		fromCol, toCol string
	}
	adj := make([][]halfEdge, n)
	for _, e := range p.Edges {
		ft := db.Table(p.Nodes[e.From].Table)
		tt := db.Table(p.Nodes[e.To].Table)
		if ft.Schema.ColumnIndex(e.FromColumn) < 0 || tt.Schema.ColumnIndex(e.ToColumn) < 0 {
			return nil, w, fmt.Errorf("relstore: join edge %s.%s=%s.%s references unknown column",
				p.Nodes[e.From].Table, e.FromColumn, p.Nodes[e.To].Table, e.ToColumn)
		}
		adj[e.From] = append(adj[e.From], halfEdge{to: e.To, fromCol: e.FromColumn, toCol: e.ToColumn})
		adj[e.To] = append(adj[e.To], halfEdge{to: e.From, fromCol: e.ToColumn, toCol: e.FromColumn})
	}

	// Per-node candidate membership for filtering joined rows.
	member := make([]map[int]bool, n)
	for i := range cands {
		m := make(map[int]bool, len(cands[i]))
		for _, id := range cands[i] {
			m[id] = true
		}
		member[i] = m
	}

	// DFS order from root over the tree.
	type scanStep struct {
		node, parent   int
		parentCol, col string
	}
	order := make([]scanStep, 0, n)
	visited := make([]bool, n)
	var build func(v, parent int, pc, c string)
	build = func(v, parent int, pc, c string) {
		visited[v] = true
		order = append(order, scanStep{node: v, parent: parent, parentCol: pc, col: c})
		for _, he := range adj[v] {
			if !visited[he.to] {
				build(he.to, v, he.fromCol, he.toCol)
			}
		}
	}
	build(root, -1, "", "")

	var results []JTT
	assign := make([]int, n)
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(order) {
			row := make([]int, n)
			copy(row, assign)
			results = append(results, JTT{Rows: row})
			return opts.Limit > 0 && len(results) >= opts.Limit
		}
		st := order[k]
		var choices []int
		if st.parent < 0 {
			choices = cands[st.node]
		} else {
			pt := db.Table(p.Nodes[st.parent].Table)
			pv, _ := pt.Value(assign[st.parent], st.parentCol)
			ct := db.Table(p.Nodes[st.node].Table)
			partners := ct.LookupEqual(st.col, pv)
			w.Probes += len(partners)
			for _, id := range partners {
				if member[st.node][id] {
					choices = append(choices, id)
				}
			}
		}
		for _, id := range choices {
			assign[st.node] = id
			if rec(k + 1) {
				return true
			}
		}
		return false
	}
	rec(0)
	return results, w, nil
}
