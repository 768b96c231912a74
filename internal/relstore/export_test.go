package relstore

// Half is one resolved half of a compiled plan's join edge.
type Half struct {
	To, FromCol int
	Adj         any // the adjacency the half walks; compare with ==
}

// Resolution reports what Compile resolved for each node of the plan:
// its table, its predicate columns and the halves of its edges.
func (cp *CompiledPlan) Resolution() (tables []*Table, cols [][]int, halves [][]Half) {
	for i, node := range cp.nodes {
		tables = append(tables, node.table)
		var c []int
		for _, p := range node.preds {
			c = append(c, p.col)
		}
		cols = append(cols, c)
		var hs []Half
		for _, h := range cp.adj[i] {
			hs = append(hs, Half{To: h.to, FromCol: h.fromCol, Adj: h.adj})
		}
		halves = append(halves, hs)
	}
	return tables, cols, halves
}
