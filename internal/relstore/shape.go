package relstore

import "fmt"

// This file implements prepared plan shapes. Every interpretation of one
// query template joins the same tables along the same edges and differs
// only in its predicates, so the structure is validated once, when the
// template is built, and resolved against a database once per snapshot:
// a plan made from a shape shares its edges, and Compile takes its
// tables and both halves of every edge's foreign-key adjacency from the
// database's skeleton memo instead of looking them up again.

// PlanShape is the predicate-free structure a family of join plans
// shares: node tables and tree edges, validated once. It is immutable.
type PlanShape struct {
	tables []string
	edges  []JoinEdge
	err    error // the structure's Validate verdict, reported by Compile
}

// NewPlanShape prepares the shape of plans over the given node tables
// and edges; it keeps both slices, which must not change afterwards. A
// malformed structure is not refused here: plans made from it fail
// Compile with the error Validate gives, as hand-built plans do.
func NewPlanShape(tables []string, edges []JoinEdge) *PlanShape {
	return &PlanShape{tables: tables, edges: edges, err: validateTree(len(tables), edges)}
}

// NewPlan returns a predicate-free plan of this shape. Its Nodes are its
// own; its Edges are the shape's, shared read-only by every plan of it.
func (s *PlanShape) NewPlan() *JoinPlan {
	nodes := make([]JoinNode, len(s.tables))
	for i, t := range s.tables {
		nodes[i].Table = t
	}
	return &JoinPlan{Nodes: nodes, Edges: s.edges, shape: s}
}

// fits reports whether the plan still has the shape it was made from: a
// caller that replaced its tables or edges made it a hand-built plan.
func (s *PlanShape) fits(p *JoinPlan) bool {
	if len(p.Nodes) != len(s.tables) || len(p.Edges) != len(s.edges) ||
		len(s.edges) > 0 && &p.Edges[0] != &s.edges[0] {
		return false
	}
	for i := range p.Nodes {
		if p.Nodes[i].Table != s.tables[i] {
			return false
		}
	}
	return true
}

// skeleton is a plan structure resolved against one database: each
// node's table and, per node, the halves of its edges with their
// adjacencies. set is the foreign-key link set the adjacencies came
// from (nil for a plan without edges). A skeleton is read-only and
// shared by every plan compiled from it.
type skeleton struct {
	set    *fkSet
	tables []*Table
	adj    [][]compiledHalf
}

// skeleton returns the plan's resolved structure. A plan that fits its
// shape takes it from the memo, which holds one skeleton per shape,
// valid while the database's link set is the one it was resolved
// against: a relink after rows were added replaces the set, and a
// database from Apply starts with an empty memo. Any other plan is
// validated and resolved afresh through the same code.
func (db *Database) skeleton(p *JoinPlan) (*skeleton, error) {
	s := p.shape
	if s == nil || !s.fits(p) {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		return db.resolve(p)
	}
	if s.err != nil {
		return nil, s.err
	}
	if v, ok := db.skeletons.Load(s); ok {
		if sk := v.(*skeleton); len(p.Edges) == 0 || sk.set == db.linkSet() {
			return sk, nil
		}
	}
	sk, err := db.resolve(p)
	if err != nil {
		return nil, err
	}
	db.skeletons.Store(s, sk)
	return sk, nil
}

// resolve looks up the plan's tables and the adjacency of every edge in
// both directions. Every edge must join along a declared foreign key, in
// either direction; any other edge is an error.
func (db *Database) resolve(p *JoinPlan) (*skeleton, error) {
	n := len(p.Nodes)
	sk := &skeleton{tables: make([]*Table, n), adj: make([][]compiledHalf, n)}
	for i, node := range p.Nodes {
		if sk.tables[i] = db.Table(node.Table); sk.tables[i] == nil {
			return nil, fmt.Errorf("relstore: join plan references unknown table %s", node.Table)
		}
	}
	if len(p.Edges) == 0 {
		return sk, nil
	}
	// Each node's halves share one array; a tree has 2(n-1) of them.
	deg := make([]int, n)
	for _, e := range p.Edges {
		deg[e.From]++
		deg[e.To]++
	}
	halves := make([]compiledHalf, 0, 2*len(p.Edges))
	for i, d := range deg {
		sk.adj[i] = halves[len(halves) : len(halves) : len(halves)+d]
		halves = halves[:len(halves)+d]
	}
	sk.set = db.linkSet()
	for _, e := range p.Edges {
		from, to := sk.tables[e.From], sk.tables[e.To]
		fi, ti := from.Schema.ColumnIndex(e.FromColumn), to.Schema.ColumnIndex(e.ToColumn)
		if fi < 0 || ti < 0 {
			return nil, fmt.Errorf("relstore: join edge %s.%s=%s.%s references unknown column",
				p.Nodes[e.From].Table, e.FromColumn, p.Nodes[e.To].Table, e.ToColumn)
		}
		fwd := joinAdjacency(sk.set.links, from, fi, to, ti)
		if fwd == nil {
			return nil, fmt.Errorf("relstore: join edge %s.%s=%s.%s is not a declared foreign key",
				p.Nodes[e.From].Table, e.FromColumn, p.Nodes[e.To].Table, e.ToColumn)
		}
		sk.adj[e.From] = append(sk.adj[e.From], compiledHalf{to: e.To, fromCol: fi, adj: fwd})
		sk.adj[e.To] = append(sk.adj[e.To], compiledHalf{to: e.From, fromCol: ti, adj: joinAdjacency(sk.set.links, to, ti, from, fi)})
	}
	return sk, nil
}
