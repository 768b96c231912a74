package relstore

import (
	"fmt"
)

// Predicate restricts a join-plan node to rows whose Column value contains
// the whole Keywords bag (the σ_{k ∈ A} selection of Definition 3.5.2).
type Predicate struct {
	Column   string
	Keywords []string
}

// JoinNode is one relation occurrence in a candidate network. The same
// table may appear in several nodes (self-joins such as
// Actor ⋈ Acts1 ⋈ Movie ⋈ Acts2 ⋈ Actor).
type JoinNode struct {
	Table      string
	Predicates []Predicate
}

// JoinEdge joins node From to node To on From.FromColumn = To.ToColumn.
// Edges are undirected for execution purposes; the pair of columns encodes
// the FK → PK relationship from the schema graph.
type JoinEdge struct {
	From, To             int
	FromColumn, ToColumn string
}

// JoinPlan is an executable candidate network: a tree of join nodes.
// It corresponds to a single SQL statement joining the tables as specified
// and selecting rows that contain the keywords (§2.2.6).
type JoinPlan struct {
	Nodes []JoinNode
	Edges []JoinEdge

	// shape is the prepared shape the plan was made from (PlanShape.NewPlan);
	// nil for a hand-built plan.
	shape *PlanShape
}

// Validate checks structural well-formedness: edges reference valid nodes
// and the edge set forms a tree over the nodes (connected, acyclic).
func (p *JoinPlan) Validate() error { return validateTree(len(p.Nodes), p.Edges) }

// validateTree is Validate over n nodes joined by edges.
func validateTree(n int, edges []JoinEdge) error {
	if n == 0 {
		return fmt.Errorf("relstore: join plan has no nodes")
	}
	if len(edges) != n-1 {
		return fmt.Errorf("relstore: join plan over %d nodes needs %d edges, has %d",
			n, n-1, len(edges))
	}
	adj := make([][]int, n)
	for _, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("relstore: join edge references node out of range")
		}
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	if count != n {
		return fmt.Errorf("relstore: join plan is not connected")
	}
	return nil
}

// JTT is a joining tree of tuples — one concrete search result: the RowID
// chosen for each node of the join plan, positionally aligned with
// JoinPlan.Nodes.
type JTT struct {
	Rows []int
}

// ResultKey identifies one tuple of a result for the overlap accounting of
// the DivQ metrics (a "primary key" in the thesis's terminology).
type ResultKey struct {
	Table string
	RowID int
}

// Keys returns the result keys of all tuples in the JTT under the plan.
func (j JTT) Keys(p *JoinPlan) []ResultKey {
	out := make([]ResultKey, len(j.Rows))
	for i, r := range j.Rows {
		out[i] = ResultKey{Table: p.Nodes[i].Table, RowID: r}
	}
	return out
}

// ExecuteOptions tunes plan execution.
type ExecuteOptions struct {
	// Limit bounds the number of JTTs materialised; 0 means unlimited.
	Limit int
	// Cache, when non-nil, memoises keyword selections across plans of
	// one request (see SelectionCache). Sharing one cache across the
	// candidate networks of a top-k request is the intended use; a nil
	// cache computes every selection from the posting lists directly.
	Cache *SelectionCache
}

// Execute runs the join plan against the database and materialises the
// joining tuple trees. The plan is compiled (tables and columns resolved
// once), per-node candidates are evaluated from the per-column posting
// lists, and index nested loops rooted at the most selective node
// enumerate the results, descending only into rows a demand-driven
// semi-join finds completable.
// The JTT sequence is identical to the reference scan executor
// (ExecuteScan), including under Limit.
func (db *Database) Execute(p *JoinPlan, opts ExecuteOptions) ([]JTT, error) {
	cp, err := db.Compile(p)
	if err != nil {
		return nil, err
	}
	return cp.Execute(opts)
}

// Count returns the number of results of the plan, bounded by limit
// (0 = unlimited). Unlike Execute it never materialises JTTs — the
// enumeration only counts — so emptiness and cardinality probes (the
// aggregate queries of Section 2.2.7 and DivQ's non-empty filter) run
// allocation-free per result. cache is the per-request selection cache,
// as in ExecuteOptions; nil computes every selection directly.
func (db *Database) Count(p *JoinPlan, limit int, cache *SelectionCache) (int, error) {
	cp, err := db.Compile(p)
	if err != nil {
		return 0, err
	}
	return cp.CountRows(limit, cache)
}

// PlanExecutor abstracts how a join plan is evaluated against the current
// snapshot. LocalExecutor compiles and runs the plan in place; wrappers
// (the engine's tracing executor, the benchmark ledger's) time or count
// around it. Every implementation must produce the exact JTT sequence of
// Database.Execute — byte-for-byte, including under limit — so callers
// (top-k, DivQ filtering, preview assembly) never depend on which one
// runs.
type PlanExecutor interface {
	// ExecutePlan materialises the plan's joining tuple trees, bounded
	// by limit (0 = unlimited).
	ExecutePlan(p *JoinPlan, limit int) ([]JTT, error)
	// CountPlan counts the plan's results without materialising them,
	// bounded by limit (0 = unlimited).
	CountPlan(p *JoinPlan, limit int) (int, error)
}

// LocalExecutor is the in-process PlanExecutor: plans run directly
// against DB with an optional per-request selection cache (which may
// carry the engine-lifetime shared answer store).
type LocalExecutor struct {
	DB    *Database
	Cache *SelectionCache
}

// ExecutePlan implements PlanExecutor.
func (l *LocalExecutor) ExecutePlan(p *JoinPlan, limit int) ([]JTT, error) {
	return l.DB.Execute(p, ExecuteOptions{Limit: limit, Cache: l.Cache})
}

// CountPlan implements PlanExecutor.
func (l *LocalExecutor) CountPlan(p *JoinPlan, limit int) (int, error) {
	return l.DB.Count(p, limit, l.Cache)
}
