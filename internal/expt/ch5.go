package expt

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/freeq"
	"repro/internal/invindex"
	"repro/internal/metrics"
	"repro/internal/ontology"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/schemagraph"
)

// FreebaseEnv bundles the very large flat database with its ontology
// layer (Chapter 5).
type FreebaseEnv struct {
	*Env
	FD   *datagen.FreebaseData
	CS   *datagen.ConceptSpace
	Onto *ontology.Ontology
}

// NewFreebaseEnv builds the synthetic Freebase of the given scale and
// maps its tables onto the generated YAGO ontology (via the ground-truth
// concepts — the role YAGO+F plays for the real datasets).
func NewFreebaseEnv(domains, tablesPerDomain int, seed int64) (*FreebaseEnv, error) {
	cs := datagen.NewConceptSpace(40, 20, 120, seed)
	fd, err := datagen.Freebase(cs, datagen.FreebaseConfig{
		Domains: domains, TablesPerDomain: tablesPerDomain, RowsPerTable: 10, Seed: seed + 1,
	})
	if err != nil {
		return nil, err
	}
	ix := invindex.Build(fd.DB)
	g := schemagraph.FromDatabase(fd.DB)
	// Entity-centric construction: singleton and hub-link templates. The
	// schema is flat, so longer join paths explode combinatorially — the
	// very problem FreeQ addresses at the interaction level.
	cat := query.BuildCatalog(g, schemagraph.EnumerateOptions{MaxNodes: 2, MaxTrees: 100000})
	onto := datagen.YAGO(cs, datagen.YAGOConfig{Seed: seed + 2})
	freeq.MapConceptTables(onto, fd.ConceptOf)
	return &FreebaseEnv{
		Env:  &Env{Name: "freebase", DB: fd.DB, IX: ix, Graph: g, Cat: cat},
		FD:   fd,
		CS:   cs,
		Onto: onto,
	}, nil
}

// FreebaseIntent is one workload query over the Freebase environment.
type FreebaseIntent struct {
	Keywords []string
	Table    string // intended table
	// Complexity is the number of keywords (the query-complexity classes
	// of Table 5.2 / Figure 5.4).
	Complexity int
}

// FreebaseWorkload samples entity-centric intents: 1–3 tokens of one
// row's textual attributes of a random table.
func FreebaseWorkload(env *FreebaseEnv, queries int, seed int64) []FreebaseIntent {
	rng := rand.New(rand.NewSource(seed))
	tables := make([]string, 0, len(env.FD.ConceptOf))
	for t := range env.FD.ConceptOf {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	var out []FreebaseIntent
	for len(out) < queries {
		table := tables[rng.Intn(len(tables))]
		tb := env.DB.Table(table)
		if tb == nil || tb.Len() == 0 {
			continue
		}
		row, _ := tb.Row(rng.Intn(tb.Len()))
		nameIdx := tb.Schema.ColumnIndex("name")
		notesIdx := tb.Schema.ColumnIndex("notes")
		nameToks := relstore.Tokenize(row.Values[nameIdx])
		notesToks := relstore.Tokenize(row.Values[notesIdx])
		complexity := 1 + rng.Intn(3)
		var keywords []string
		seen := map[string]bool{}
		push := func(tok string) {
			if tok != "" && !seen[tok] && len(tok) >= 3 {
				seen[tok] = true
				keywords = append(keywords, tok)
			}
		}
		push(nameToks[rng.Intn(len(nameToks))])
		if complexity >= 2 && len(nameToks) > 1 {
			push(nameToks[(rng.Intn(len(nameToks)))])
		}
		if complexity >= 3 && len(notesToks) > 0 {
			push(notesToks[rng.Intn(len(notesToks))])
		}
		if len(keywords) == 0 {
			continue
		}
		out = append(out, FreebaseIntent{Keywords: keywords, Table: table, Complexity: len(keywords)})
	}
	return out
}

// resolveFreebaseIntent constructs the ground-truth interpretation
// directly: every keyword bound to the intended table's name (or notes)
// attribute on the table's singleton template. Direct construction
// avoids materialising the full interpretation space per intent, which
// is prohibitive at the 7,000-table scale.
func resolveFreebaseIntent(env *FreebaseEnv, in FreebaseIntent) (*query.Interpretation, bool) {
	var tpl *query.Template
	for _, t := range env.Cat.Templates {
		if t.Size() == 1 && t.Tree.Tables[0] == in.Table {
			tpl = t
			break
		}
	}
	if tpl == nil {
		return nil, false
	}
	bindings := make([]query.Binding, 0, len(in.Keywords))
	for pos, kw := range in.Keywords {
		var attr invindex.AttrRef
		switch {
		case env.IX.TermCount(kw, invindex.AttrRef{Table: in.Table, Column: "name"}) > 0:
			attr = invindex.AttrRef{Table: in.Table, Column: "name"}
		case env.IX.TermCount(kw, invindex.AttrRef{Table: in.Table, Column: "notes"}) > 0:
			attr = invindex.AttrRef{Table: in.Table, Column: "notes"}
		default:
			return nil, false
		}
		bindings = append(bindings, query.Binding{
			KI: &query.KeywordInterpretation{
				Pos: pos, Keyword: kw, Kind: query.KindValue, Attr: attr,
			},
			Occ: 0,
		})
	}
	return query.NewInterpretation(in.Keywords, tpl, bindings), true
}

// Table5_1 prints a worked FreeQ construction transcript: the sequence of
// ontology-based QCOs for one query (Table 5.1).
func Table5_1(env *FreebaseEnv, in FreebaseIntent) (*Table, error) {
	model := env.Model(prob.Config{})
	c := env.Candidates(in.Keywords)
	intended, ok := resolveFreebaseIntent(env, in)
	if !ok {
		return nil, fmt.Errorf("expt: intent %v unresolvable", in.Keywords)
	}
	sess, err := freeq.NewSessionContext(context.Background(), model, c, env.Onto, freeq.Config{StopAtRemaining: 1})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Table 5.1: FreeQ construction transcript for %v", in.Keywords),
		Headers: []string{"step", "question", "answer", "space size"},
	}
	step := 0
	for !sess.Done() && step < 40 {
		o, ok := sess.NextOption()
		if !ok {
			break
		}
		step++
		answer := "reject"
		if acceptsOption(intended, o) {
			answer = "accept"
			err = sess.AcceptContext(context.Background(), o)
		} else {
			err = sess.RejectContext(context.Background(), o)
		}
		if err != nil {
			return nil, err
		}
		t.AddRow(step, o.Describe(), answer, sess.SpaceSize())
	}
	t.Notes = append(t.Notes, fmt.Sprintf("final candidates: %d", len(sess.Remaining())))
	return t, nil
}

func acceptsOption(intended *query.Interpretation, o freeq.Option) bool {
	for _, b := range intended.Bindings {
		if b.KI.Pos == o.Pos {
			return o.Covers(*b.KI)
		}
	}
	return false
}

// Table52Row summarises one complexity class of the workload.
type Table52Row struct {
	Complexity      int
	Queries         int
	AvgCandidates   float64
	AvgSpaceSize    float64
	MaxCandidateSet int
}

// Table5_2 reports the complexity of the Freebase keyword workload
// (Table 5.2): per query-complexity class, the candidate-set sizes and
// the binding-combination space.
func Table5_2(env *FreebaseEnv, intents []FreebaseIntent) ([]Table52Row, *Table) {
	agg := map[int]*Table52Row{}
	for _, in := range intents {
		c := env.Candidates(in.Keywords)
		row := agg[in.Complexity]
		if row == nil {
			row = &Table52Row{Complexity: in.Complexity}
			agg[in.Complexity] = row
		}
		row.Queries++
		total := 0
		for _, kis := range c.PerKeyword {
			total += len(kis)
			if len(kis) > row.MaxCandidateSet {
				row.MaxCandidateSet = len(kis)
			}
		}
		row.AvgCandidates += float64(total) / float64(len(c.PerKeyword))
		row.AvgSpaceSize += float64(c.SpaceSize())
	}
	table := &Table{
		Title:   "Table 5.2: complexity of keyword queries over Freebase",
		Headers: []string{"keywords", "queries", "avg candidates/keyword", "avg space", "max candidate set"},
	}
	var rows []Table52Row
	for k := 1; k <= 5; k++ {
		row := agg[k]
		if row == nil {
			continue
		}
		row.AvgCandidates /= float64(row.Queries)
		row.AvgSpaceSize /= float64(row.Queries)
		rows = append(rows, *row)
		table.AddRow(k, row.Queries, row.AvgCandidates,
			fmt.Sprintf("%.0f", row.AvgSpaceSize), row.MaxCandidateSet)
	}
	return rows, table
}

// Table53Row describes one generated ontology scale.
type Table53Row struct {
	Depth, Branch int
	Classes       int
	Leaves        int
	MappedTables  int
}

// Table5_3 generates ontologies of different sizes over the same concept
// space and reports their shapes (Table 5.3).
func Table5_3(env *FreebaseEnv, configs []datagen.YAGOConfig) ([]Table53Row, *Table) {
	table := &Table{
		Title:   "Table 5.3: ontologies of different size",
		Headers: []string{"depth", "branch", "classes", "leaves", "mapped tables"},
	}
	var rows []Table53Row
	for _, cfg := range configs {
		o := datagen.YAGO(env.CS, cfg)
		mapped := freeq.MapConceptTables(o, env.FD.ConceptOf)
		row := Table53Row{
			Depth: cfg.BackboneDepth, Branch: cfg.BackboneBranch,
			Classes: o.NumClasses(), Leaves: len(o.Leaves()), MappedTables: mapped,
		}
		rows = append(rows, row)
		table.AddRow(row.Depth, row.Branch, row.Classes, row.Leaves, row.MappedTables)
	}
	return rows, table
}

// Fig52Row is one schema-size cell of Figure 5.2.
type Fig52Row struct {
	Tables int
	// FirstOptionEfficiency of the first FreeQ QCO vs the first
	// attribute-level option.
	OntologyEfficiency  float64
	AttributeEfficiency float64
	// Interaction costs of the full constructions.
	OntologySteps  float64
	AttributeSteps float64
}

// Fig5_2 sweeps the schema size and reports QCO efficiency and
// interaction cost for ontology-based vs attribute-level QCOs
// (Figure 5.2).
func Fig5_2(domainCounts []int, tablesPerDomain, queriesPer int, seed int64) ([]Fig52Row, *Table, error) {
	table := &Table{
		Title:   "Figure 5.2: QCO efficiency and interaction cost vs schema size",
		Headers: []string{"tables", "eff(onto)", "eff(attr)", "steps(onto)", "steps(attr)", "n"},
	}
	var rows []Fig52Row
	for _, domains := range domainCounts {
		env, err := NewFreebaseEnv(domains, tablesPerDomain, seed)
		if err != nil {
			return nil, nil, err
		}
		model := env.Model(prob.Config{})
		intents := FreebaseWorkload(env, queriesPer*3, seed+7)
		var effO, effA, stepsO, stepsA []float64
		for _, in := range intents {
			if in.Complexity != 1 {
				continue
			}
			c := env.Candidates(in.Keywords)
			intended, ok := resolveFreebaseIntent(env, in)
			if !ok {
				continue
			}
			fsess, err := freeq.NewSessionContext(context.Background(), model, c, env.Onto, freeq.Config{StopAtRemaining: 1})
			if err != nil {
				continue
			}
			if o, ok := fsess.NextOption(); ok {
				effO = append(effO, optionEfficiency(model, c, o))
			}
			fres, err := freeq.RunConstruction(context.Background(), fsess, intended)
			if err != nil {
				continue
			}
			isess, err := core.NewSessionContext(context.Background(), model, c, core.SessionConfig{StopAtRemaining: 1})
			if err != nil {
				continue
			}
			if opt, ok := isess.NextOption(); ok {
				effA = append(effA, singleOptionEfficiency(model, c, opt))
			}
			ires, err := core.RunConstruction(context.Background(), isess, core.NewSimulatedUser(intended))
			if err != nil {
				continue
			}
			stepsO = append(stepsO, float64(fres.Steps))
			stepsA = append(stepsA, float64(ires.Steps))
			if len(stepsO) >= queriesPer {
				break
			}
		}
		row := Fig52Row{
			Tables:              env.DB.NumTables(),
			OntologyEfficiency:  metrics.Mean(effO),
			AttributeEfficiency: metrics.Mean(effA),
			OntologySteps:       metrics.Mean(stepsO),
			AttributeSteps:      metrics.Mean(stepsA),
		}
		rows = append(rows, row)
		table.AddRow(row.Tables, row.OntologyEfficiency, row.AttributeEfficiency,
			row.OntologySteps, row.AttributeSteps, len(stepsO))
	}
	return rows, table, nil
}

// optionEfficiency computes the QCO efficiency of a FreeQ option: the
// acceptance probability mass of its covered interpretations for its
// keyword.
func optionEfficiency(model *prob.Model, c *query.Candidates, o freeq.Option) float64 {
	total, covered := 0.0, 0.0
	for _, ki := range c.PerKeyword[o.Pos] {
		m := model.KeywordProb(ki)
		total += m
		if o.Covers(ki) {
			covered += m
		}
	}
	if total <= 0 {
		return 0
	}
	return freeq.Efficiency(covered / total)
}

// singleOptionEfficiency computes the efficiency of an IQP attribute-level
// option over its keyword's candidates.
func singleOptionEfficiency(model *prob.Model, c *query.Candidates, opt query.Option) float64 {
	if len(opt.KIs) == 0 {
		return 0
	}
	pos := opt.KIs[0].Pos
	total, covered := 0.0, 0.0
	for _, ki := range c.PerKeyword[pos] {
		m := model.KeywordProb(ki)
		total += m
		for _, oki := range opt.KIs {
			if oki.Key() == ki.Key() {
				covered += m
			}
		}
	}
	if total <= 0 {
		return 0
	}
	return freeq.Efficiency(covered / total)
}

// Fig54Row is one complexity class of the Freebase construction
// comparison (Figure 5.4).
type Fig54Row struct {
	Complexity int
	FreeQSteps float64
	IQPSteps   float64
	N          int
}

// Fig55Row is the response-time counterpart (Figure 5.5).
type Fig55Row struct {
	Complexity    int
	FreeQPerStep  time.Duration
	N             int
	FreeQTotalRun time.Duration
}

// Fig5_4_5 runs the Freebase construction workload and reports both the
// interaction cost (Figure 5.4) and the per-step response time
// (Figure 5.5).
func Fig5_4_5(env *FreebaseEnv, intents []FreebaseIntent) ([]Fig54Row, []Fig55Row, *Table, *Table, error) {
	model := env.Model(prob.Config{})
	type agg struct {
		fsteps, isteps []float64
		ftime          time.Duration
		fstepsTotal    int
	}
	byC := map[int]*agg{}
	for _, in := range intents {
		c := env.Candidates(in.Keywords)
		intended, ok := resolveFreebaseIntent(env, in)
		if !ok {
			continue
		}
		fsess, err := freeq.NewSessionContext(context.Background(), model, c, env.Onto, freeq.Config{StopAtRemaining: 5})
		if err != nil {
			continue
		}
		fres, err := freeq.RunConstruction(context.Background(), fsess, intended)
		if err != nil {
			continue
		}
		isess, err := core.NewSessionContext(context.Background(), model, c, core.SessionConfig{StopAtRemaining: 5})
		if err != nil {
			continue
		}
		ires, err := core.RunConstruction(context.Background(), isess, core.NewSimulatedUser(intended))
		if err != nil {
			continue
		}
		a := byC[in.Complexity]
		if a == nil {
			a = &agg{}
			byC[in.Complexity] = a
		}
		a.fsteps = append(a.fsteps, float64(fres.Steps))
		a.isteps = append(a.isteps, float64(ires.Steps))
		a.ftime += fres.StepTime
		a.fstepsTotal += fres.Steps
	}
	t54 := &Table{
		Title:   "Figure 5.4: interaction cost of construction over Freebase",
		Headers: []string{"keywords", "FreeQ steps", "IQP steps", "n"},
	}
	t55 := &Table{
		Title:   "Figure 5.5: response time of construction over Freebase",
		Headers: []string{"keywords", "FreeQ time/step", "n"},
	}
	var rows54 []Fig54Row
	var rows55 []Fig55Row
	for k := 1; k <= 5; k++ {
		a := byC[k]
		if a == nil {
			continue
		}
		r54 := Fig54Row{Complexity: k, FreeQSteps: metrics.Mean(a.fsteps),
			IQPSteps: metrics.Mean(a.isteps), N: len(a.fsteps)}
		rows54 = append(rows54, r54)
		t54.AddRow(k, r54.FreeQSteps, r54.IQPSteps, r54.N)
		perStep := time.Duration(0)
		if a.fstepsTotal > 0 {
			perStep = a.ftime / time.Duration(a.fstepsTotal)
		}
		r55 := Fig55Row{Complexity: k, FreeQPerStep: perStep, N: len(a.fsteps), FreeQTotalRun: a.ftime}
		rows55 = append(rows55, r55)
		t55.AddRow(k, perStep.Round(time.Microsecond).String(), r55.N)
	}
	return rows54, rows55, t54, t55, nil
}

// AblationOntologyFanout sweeps the ontology branching factor and
// measures its effect on FreeQ interaction cost.
func AblationOntologyFanout(env *FreebaseEnv, intents []FreebaseIntent, branches []int, seed int64) (*Table, error) {
	table := &Table{
		Title:   "Ablation: ontology branching factor vs FreeQ interaction cost",
		Headers: []string{"branch", "classes", "avg steps", "n"},
	}
	model := env.Model(prob.Config{})
	for _, b := range branches {
		o := datagen.YAGO(env.CS, datagen.YAGOConfig{BackboneBranch: b, Seed: seed})
		freeq.MapConceptTables(o, env.FD.ConceptOf)
		var steps []float64
		for _, in := range intents {
			c := env.Candidates(in.Keywords)
			intended, ok := resolveFreebaseIntent(env, in)
			if !ok {
				continue
			}
			sess, err := freeq.NewSessionContext(context.Background(), model, c, o, freeq.Config{StopAtRemaining: 5})
			if err != nil {
				continue
			}
			res, err := freeq.RunConstruction(context.Background(), sess, intended)
			if err != nil {
				continue
			}
			steps = append(steps, float64(res.Steps))
		}
		table.AddRow(b, o.NumClasses(), metrics.Mean(steps), len(steps))
	}
	return table, nil
}
