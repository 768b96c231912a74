// Package schemagraph models the undirected schema graph of a relational
// database (Section 2.2.3, Figure 2.2): nodes are tables, edges are foreign
// key → primary key relationships. Its enumeration primitive,
// EnumerateJoinTrees, yields all connected join trees over the schema
// graph up to a size bound, allowing repeated table occurrences (self-join
// patterns such as Actor ⋈ Acts ⋈ Movie ⋈ Acts ⋈ Actor). These are the
// automatically generated query templates of Section 3.5.2.
package schemagraph

import (
	"sort"
	"strings"

	"repro/internal/relstore"
)

// Edge is one foreign-key relationship between two tables. By convention
// From.FromColumn references To.ToColumn (FK → PK), but traversal treats
// edges as undirected, as in Figure 2.2.
type Edge struct {
	From, To             string
	FromColumn, ToColumn string
}

// Reverse returns the same relationship seen from the other side.
func (e Edge) Reverse() Edge {
	return Edge{From: e.To, To: e.From, FromColumn: e.ToColumn, ToColumn: e.FromColumn}
}

// Graph is the undirected schema graph of a database.
type Graph struct {
	tables []string
	index  map[string]int
	// adjacency: table -> outgoing half-edges (including reversed ones).
	adj map[string][]Edge
}

// FromDatabase builds the schema graph from the declared foreign keys.
func FromDatabase(db *relstore.Database) *Graph {
	g := &Graph{index: make(map[string]int), adj: make(map[string][]Edge)}
	for _, name := range db.TableNames() {
		g.index[name] = len(g.tables)
		g.tables = append(g.tables, name)
	}
	for _, t := range db.Tables() {
		for _, fk := range t.Schema.ForeignKeys {
			e := Edge{From: t.Schema.Name, To: fk.RefTable, FromColumn: fk.Column, ToColumn: fk.RefColumn}
			g.adj[e.From] = append(g.adj[e.From], e)
			g.adj[e.To] = append(g.adj[e.To], e.Reverse())
		}
	}
	g.sortAdj()
	return g
}

// New builds a schema graph directly from table names and edges; used by
// simulations that need synthetic schema graphs without materialised data
// (Section 3.8.5).
func New(tables []string, edges []Edge) *Graph {
	g := &Graph{index: make(map[string]int), adj: make(map[string][]Edge)}
	for _, name := range tables {
		if _, dup := g.index[name]; dup {
			continue
		}
		g.index[name] = len(g.tables)
		g.tables = append(g.tables, name)
	}
	for _, e := range edges {
		g.adj[e.From] = append(g.adj[e.From], e)
		g.adj[e.To] = append(g.adj[e.To], e.Reverse())
	}
	g.sortAdj()
	return g
}

func (g *Graph) sortAdj() {
	for _, list := range g.adj {
		sort.Slice(list, func(i, j int) bool {
			a, b := list[i], list[j]
			if a.To != b.To {
				return a.To < b.To
			}
			if a.FromColumn != b.FromColumn {
				return a.FromColumn < b.FromColumn
			}
			return a.ToColumn < b.ToColumn
		})
	}
}

// Tables returns all table names in insertion order.
func (g *Graph) Tables() []string {
	out := make([]string, len(g.tables))
	copy(out, g.tables)
	return out
}

// NumTables returns the number of nodes.
func (g *Graph) NumTables() int { return len(g.tables) }

// JoinTree is a connected tree over table occurrences. Node i is an
// occurrence of table Tables[i]; TreeEdges connect occurrences. The same
// table may occur several times.
type JoinTree struct {
	Tables    []string
	TreeEdges []TreeEdge
}

// TreeEdge joins occurrence From to occurrence To using the schema-graph
// edge columns.
type TreeEdge struct {
	From, To             int
	FromColumn, ToColumn string
}

// Size returns the number of table occurrences.
func (t *JoinTree) Size() int { return len(t.Tables) }

// Clone deep-copies the tree.
func (t *JoinTree) Clone() *JoinTree {
	nt := &JoinTree{
		Tables:    make([]string, len(t.Tables)),
		TreeEdges: make([]TreeEdge, len(t.TreeEdges)),
	}
	copy(nt.Tables, t.Tables)
	copy(nt.TreeEdges, t.TreeEdges)
	return nt
}

// String renders the tree as a deterministic human-readable expression,
// e.g. "actor ⋈ acts ⋈ movie".
func (t *JoinTree) String() string {
	return strings.Join(t.Tables, " ⋈ ")
}

// Canonical returns a canonical encoding of the tree: isomorphic trees
// (same multiset of tables connected the same way, regardless of node
// numbering) produce identical strings. Used for deduplication during
// enumeration. The encoding is the AHU tree canonisation applied from
// every possible root, taking the lexicographically smallest result.
func (t *JoinTree) Canonical() string {
	n := len(t.Tables)
	if n == 0 {
		return ""
	}
	adj := make([][]int, n)
	edgeLabel := make(map[[2]int]string)
	for _, e := range t.TreeEdges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
		edgeLabel[[2]int{e.From, e.To}] = e.FromColumn + "=" + e.ToColumn
		edgeLabel[[2]int{e.To, e.From}] = e.ToColumn + "=" + e.FromColumn
	}
	var encode func(v, parent int) string
	encode = func(v, parent int) string {
		var kids []string
		for _, w := range adj[v] {
			if w == parent {
				continue
			}
			kids = append(kids, edgeLabel[[2]int{v, w}]+":"+encode(w, v))
		}
		sort.Strings(kids)
		return t.Tables[v] + "(" + strings.Join(kids, ",") + ")"
	}
	best := ""
	for root := 0; root < n; root++ {
		s := encode(root, -1)
		if best == "" || s < best {
			best = s
		}
	}
	return best
}

// EnumerateOptions bounds join-tree enumeration.
type EnumerateOptions struct {
	// MaxNodes bounds the number of table occurrences per tree (the
	// "maximal length of the join path" of Section 3.8.1).
	MaxNodes int
	// MaxTrees, if positive, caps the number of trees returned; enumeration
	// proceeds in breadth-first (smallest-first) order so the cap keeps the
	// shortest join paths, matching the preference of Section 2.2.4.
	MaxTrees int
	// MaxOccurrences bounds how many times one table may occur in a tree
	// (self-join depth). Zero means 2, which covers the self-join templates
	// used in the thesis.
	MaxOccurrences int
}

// EnumerateJoinTrees enumerates connected join trees over the schema graph
// in breadth-first order of size, deduplicated up to isomorphism. These are
// the automatically generated query templates of Section 3.5.2.
func (g *Graph) EnumerateJoinTrees(opts EnumerateOptions) []*JoinTree {
	if opts.MaxNodes <= 0 {
		opts.MaxNodes = 3
	}
	maxOcc := opts.MaxOccurrences
	if maxOcc <= 0 {
		maxOcc = 2
	}
	seen := make(map[string]bool)
	var out []*JoinTree
	frontier := make([]*JoinTree, 0, len(g.tables))
	emit := func(t *JoinTree) bool {
		key := t.Canonical()
		if seen[key] {
			return false
		}
		seen[key] = true
		out = append(out, t)
		return true
	}
	for _, name := range g.tables {
		t := &JoinTree{Tables: []string{name}}
		if emit(t) {
			frontier = append(frontier, t)
		}
		if opts.MaxTrees > 0 && len(out) >= opts.MaxTrees {
			return out
		}
	}
	for size := 1; size < opts.MaxNodes; size++ {
		var next []*JoinTree
		for _, t := range frontier {
			occ := make(map[string]int, len(t.Tables))
			for _, name := range t.Tables {
				occ[name]++
			}
			for vi, vName := range t.Tables {
				for _, e := range g.adj[vName] {
					if occ[e.To] >= maxOcc {
						continue
					}
					nt := t.Clone()
					nt.Tables = append(nt.Tables, e.To)
					nt.TreeEdges = append(nt.TreeEdges, TreeEdge{
						From: vi, To: len(nt.Tables) - 1,
						FromColumn: e.FromColumn, ToColumn: e.ToColumn,
					})
					if emit(nt) {
						next = append(next, nt)
					}
					if opts.MaxTrees > 0 && len(out) >= opts.MaxTrees {
						return out
					}
				}
			}
		}
		frontier = next
	}
	return out
}
