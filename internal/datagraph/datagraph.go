// Package datagraph implements the data-based keyword search family of
// Section 2.2.2 (BANKS and successors): the database is modelled as a
// graph whose nodes are tuples and whose edges are foreign-key → primary-
// key connections between tuples; the answer to a keyword query is a
// minimal joining tree of tuples connecting nodes that collectively
// contain all keywords.
//
// The search algorithm is the Backward Expanding Search of BANKS
// (Bhalotia et al., as summarised in §2.2.2): a Dijkstra-style expansion
// is started from every node containing a keyword; when some node has
// been reached by an expansion of every keyword group, the union of the
// shortest paths from that node back to one source per group is a result
// tree, rooted at the meeting node. Results are emitted in increasing
// tree weight (number of edges — the minimality/relevance proxy of
// §2.2.2); exact minimal Group Steiner trees are NP-complete, so like
// BANKS this is a heuristic with no optimality guarantee.
//
// The schema-based pipeline (internal/query + internal/prob) is the
// thesis's chosen side of the §2.2.3 comparison; this package provides
// the other side, so the two families can be compared on identical data.
package datagraph

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/relstore"
)

// Node identifies one tuple of the database.
type Node struct {
	Table string
	Row   int
}

// String renders the node as "table#row".
func (n Node) String() string { return fmt.Sprintf("%s#%d", n.Table, n.Row) }

// Graph is the data graph of a database.
type Graph struct {
	db  *relstore.Database
	adj map[Node][]Node
	// containing maps a (lower-cased) term to the nodes whose indexed
	// attributes contain it.
	containing map[string][]Node
}

// Build materialises the data graph: one node per tuple, one undirected
// edge per foreign-key reference between tuples. Tombstoned rows are
// skipped. Containment and adjacency lists are kept in canonical
// (table, row) order, so Search expands neighbours deterministically.
func Build(db *relstore.Database) *Graph {
	g := &Graph{
		db:         db,
		adj:        make(map[Node][]Node),
		containing: make(map[string][]Node),
	}
	for _, t := range db.Tables() {
		name := t.Schema.Name
		// Keyword containment per node.
		for ci, col := range t.Schema.Columns {
			if !col.Indexed {
				continue
			}
			for id, row := range t.Rows() {
				for _, tok := range relstore.Tokenize(row.Values[ci]) {
					n := Node{Table: name, Row: id}
					g.containing[tok] = append(g.containing[tok], n)
				}
			}
		}
		// FK edges.
		for _, fk := range t.Schema.ForeignKeys {
			ref := db.Table(fk.RefTable)
			if ref == nil {
				continue
			}
			ci := t.Schema.ColumnIndex(fk.Column)
			for id, row := range t.Rows() {
				for _, refID := range ref.LookupEqual(fk.RefColumn, row.Values[ci]) {
					a := Node{Table: name, Row: id}
					b := Node{Table: fk.RefTable, Row: refID}
					g.adj[a] = append(g.adj[a], b)
					g.adj[b] = append(g.adj[b], a)
				}
			}
		}
	}
	// Deduplicate containment lists (a term can repeat within one value)
	// and bring every list into canonical order.
	for tok, nodes := range g.containing {
		g.containing[tok] = sortNodes(dedupeNodes(nodes))
	}
	for n, nbrs := range g.adj {
		g.adj[n] = sortNodes(nbrs)
	}
	return g
}

func dedupeNodes(nodes []Node) []Node {
	seen := make(map[Node]bool, len(nodes))
	out := nodes[:0]
	for _, n := range nodes {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// nodeLess is the canonical (table, row) node order of every list.
func nodeLess(a, b Node) bool {
	if a.Table != b.Table {
		return a.Table < b.Table
	}
	return a.Row < b.Row
}

// sortNodes sorts a node list in place into canonical order (duplicates,
// e.g. parallel FK edges, are preserved) and returns it.
func sortNodes(nodes []Node) []Node {
	sort.Slice(nodes, func(i, j int) bool { return nodeLess(nodes[i], nodes[j]) })
	return nodes
}

// NumNodes returns the number of tuples in the database (graph nodes).
func (g *Graph) NumNodes() int { return g.db.NumRows() }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, nbrs := range g.adj {
		n += len(nbrs)
	}
	return n / 2
}

// Containing returns the nodes containing the term.
func (g *Graph) Containing(term string) []Node {
	toks := relstore.Tokenize(term)
	if len(toks) == 0 {
		return nil
	}
	src := g.containing[toks[0]]
	if len(src) == 0 {
		return nil
	}
	out := make([]Node, len(src))
	copy(out, src)
	return out
}

// Tree is one search result: a joining tree of tuples rooted at the
// meeting node (§2.2.2's rooted JTT).
type Tree struct {
	Root Node
	// Nodes lists every tuple of the tree (root included), sorted.
	Nodes []Node
	// Weight is the number of edges (tree size − 1), the cost heuristic.
	Weight int
}

// Key canonically identifies the tree by its node set.
func (t Tree) Key() string {
	parts := make([]string, len(t.Nodes))
	for i, n := range t.Nodes {
		parts[i] = n.String()
	}
	return fmt.Sprintf("%v", parts)
}

// Options bounds a search.
type Options struct {
	// K is the number of result trees to return (default 10).
	K int
	// MaxWeight bounds tree size in edges (default 6).
	MaxWeight int
	// MaxVisited caps total node expansions as a safety valve (default
	// 100000).
	MaxVisited int
}

func (o *Options) defaults() {
	if o.K <= 0 {
		o.K = 10
	}
	if o.MaxWeight <= 0 {
		o.MaxWeight = 6
	}
	if o.MaxVisited <= 0 {
		o.MaxVisited = 100000
	}
}

// pqItem is one frontier entry of the backward expansion: node reached
// from keyword group src at distance dist.
type pqItem struct {
	node Node
	src  int // keyword group index
	dist int
}

type pq []pqItem

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].dist < p[j].dist }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() interface{} {
	old := *p
	n := len(old)
	x := old[n-1]
	*p = old[:n-1]
	return x
}

// Search runs Backward Expanding Search for the keyword query and
// returns up to K result trees in non-decreasing weight. Keywords with
// no occurrence anywhere make the result empty (AND semantics, as in
// BANKS/DISCOVER, §2.2.7).
func (g *Graph) Search(keywords []string, opts Options) ([]Tree, error) {
	opts.defaults()
	groups := make([][]Node, 0, len(keywords))
	for _, kw := range keywords {
		nodes := g.Containing(kw)
		if len(nodes) == 0 {
			return nil, nil
		}
		groups = append(groups, nodes)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("datagraph: empty keyword query")
	}

	// dist[src][node] / parent[src][node] per keyword group.
	dist := make([]map[Node]int, len(groups))
	parent := make([]map[Node]Node, len(groups))
	frontier := &pq{}
	heap.Init(frontier)
	for si, nodes := range groups {
		dist[si] = make(map[Node]int)
		parent[si] = make(map[Node]Node)
		for _, n := range nodes {
			dist[si][n] = 0
			heap.Push(frontier, pqItem{node: n, src: si, dist: 0})
		}
	}

	seenTrees := make(map[string]bool)
	var results []Tree
	visited := 0
	emit := func(meet Node) {
		// Minimality (§2.2.3's "no free leaves"): the meeting node must
		// itself contain a keyword (distance 0 for some group) or join at
		// least two distinct paths; otherwise the tree has a redundant
		// free leaf at the root and a smaller tree exists.
		rootHasKeyword := false
		firstSteps := map[Node]bool{}
		for si := range groups {
			if dist[si][meet] == 0 {
				rootHasKeyword = true
			} else {
				firstSteps[parent[si][meet]] = true
			}
		}
		if !rootHasKeyword && len(firstSteps) < 2 {
			return
		}
		total := 0
		nodeSet := map[Node]bool{meet: true}
		for si := range groups {
			total += dist[si][meet]
			// Walk the shortest path back to the group's source.
			cur := meet
			for dist[si][cur] > 0 {
				cur = parent[si][cur]
				nodeSet[cur] = true
			}
		}
		if total > opts.MaxWeight {
			return
		}
		nodes := make([]Node, 0, len(nodeSet))
		for n := range nodeSet {
			nodes = append(nodes, n)
		}
		sort.Slice(nodes, func(i, j int) bool {
			if nodes[i].Table != nodes[j].Table {
				return nodes[i].Table < nodes[j].Table
			}
			return nodes[i].Row < nodes[j].Row
		})
		tr := Tree{Root: meet, Nodes: nodes, Weight: len(nodes) - 1}
		if seenTrees[tr.Key()] {
			return
		}
		seenTrees[tr.Key()] = true
		results = append(results, tr)
	}

	for frontier.Len() > 0 && len(results) < opts.K && visited < opts.MaxVisited {
		it := heap.Pop(frontier).(pqItem)
		if d, ok := dist[it.src][it.node]; ok && it.dist > d {
			continue // stale entry
		}
		visited++
		// Meeting test: reached from every group?
		meets := true
		for si := range groups {
			if _, ok := dist[si][it.node]; !ok {
				meets = false
				break
			}
		}
		if meets {
			emit(it.node)
			if len(results) >= opts.K {
				break
			}
		}
		if it.dist >= opts.MaxWeight {
			continue
		}
		for _, nbr := range g.adj[it.node] {
			nd := it.dist + 1
			if d, ok := dist[it.src][nbr]; !ok || nd < d {
				dist[it.src][nbr] = nd
				parent[it.src][nbr] = it.node
				heap.Push(frontier, pqItem{node: nbr, src: it.src, dist: nd})
			}
		}
	}
	sort.SliceStable(results, func(i, j int) bool { return results[i].Weight < results[j].Weight })
	if len(results) > opts.K {
		results = results[:opts.K]
	}
	return results, nil
}

// ContainsAll verifies a tree's nodes collectively contain every keyword
// (the completeness invariant used by the tests).
func (g *Graph) ContainsAll(t Tree, keywords []string) bool {
	for _, kw := range keywords {
		found := false
		for _, n := range g.Containing(kw) {
			for _, tn := range t.Nodes {
				if tn == n {
					found = true
				}
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Connected verifies the tree's node set is connected in the data graph
// (the joining-tree invariant used by the tests).
func (g *Graph) Connected(t Tree) bool {
	if len(t.Nodes) == 0 {
		return false
	}
	inTree := make(map[Node]bool, len(t.Nodes))
	for _, n := range t.Nodes {
		inTree[n] = true
	}
	seen := map[Node]bool{t.Nodes[0]: true}
	stack := []Node{t.Nodes[0]}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.adj[v] {
			if inTree[w] && !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return len(seen) == len(t.Nodes)
}
