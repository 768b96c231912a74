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

// Work is what the posting path did for one plan: the rows its
// constrained nodes' selections returned (up to the first empty one) and
// the join partners its enumeration probed (planRun.probes).
type Work struct{ Rows, Probes int }

// ExecuteWork materialises the plan's JTTs up to limit as Execute does
// without an answer cache, and reports its work.
func (cp *CompiledPlan) ExecuteWork(limit int, cache *SelectionCache) ([]JTT, Work) {
	var w Work
	for i := range cp.nodes {
		if cp.nodes[i].free {
			continue
		}
		c := cp.candidates(i, cache)
		if w.Rows += len(c); len(c) == 0 {
			break
		}
	}
	sels, ok := cp.prove(cache, nil)
	if !ok {
		return nil, w
	}
	r := runPool.Get().(*planRun)
	defer r.release()
	r.run(cp, sels, limit, true)
	w.Probes = r.probes
	return r.results, w
}

// NumDead returns the number of tombstoned row slots.
func (t *Table) NumDead() int { return t.numDead }

// CellsTokenized sums ColumnPostings.cells over the built columns of
// db that since does not share (every built column when since is nil):
// the cell values tokenized into those versions.
func (db *Database) CellsTokenized(since *Database) int {
	n := 0
	for _, t := range db.Tables() {
		for ci, cp := range t.postings {
			if since == nil || since.Table(t.Schema.Name).postings[ci] != cp {
				n += cp.cells
			}
		}
	}
	return n
}

// PostingListsReplaced counts the posting lists of every indexed column
// whose pointer differs between two versions of a database, a list on
// one side only included.
func PostingListsReplaced(old, cur *Database) int {
	n := 0
	for _, t := range cur.Tables() {
		for ci, c := range t.Schema.Columns {
			if !c.Indexed {
				continue
			}
			was, now := old.Table(t.Schema.Name).ensurePostings(ci).terms, t.ensurePostings(ci).terms
			for tok, pl := range now.All() {
				if was.Get(tok) != pl {
					n++
				}
			}
			for tok := range was.All() {
				if now.Get(tok) == nil {
					n++
				}
			}
		}
	}
	return n
}
