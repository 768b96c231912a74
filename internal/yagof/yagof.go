// Package yagof implements YAGO+F — combining a large-scale database with
// an ontology (Chapter 6): the structural analysis of the ontology's
// concept and instance distributions (Tables 6.1/6.2), the instance-based
// overlap between the ontology and the database (Figure 6.2), the
// instance-overlap matching of ontology classes to database tables
// (Section 6.5 / Figure 6.3), the characterisation of the resulting
// YAGO+F hierarchy (Table 6.3), and the matching-quality evaluation
// against a gold standard (Figure 6.4).
//
// The matcher is deliberately simple and faithful to the chapter's idea:
// a database table matches the ontology class that covers the largest
// fraction of the table's instances, provided the fraction reaches a
// threshold. Classes and tables share instance identifiers because both
// datasets originate from the same entity pool (Wikipedia in the thesis,
// the shared ConceptSpace in this reproduction).
package yagof

import (
	"sort"
	"strings"

	"repro/internal/ontology"
)

// CategoryBand is one row of the category-distribution analysis
// (Table 6.1): a class kind with its counts.
type CategoryBand struct {
	Kind    string
	Classes int
	// WithInstances counts classes of this kind holding ≥1 direct
	// instance.
	WithInstances int
}

// CategoryDistribution classifies ontology classes by their naming
// convention (the real YAGO mixes WordNet synsets and Wikipedia
// categories; the generator mirrors the prefixes) and reports the
// distribution of Table 6.1.
func CategoryDistribution(o *ontology.Ontology) []CategoryBand {
	counts := map[string]*CategoryBand{}
	order := []string{}
	for id := 0; id < o.NumClasses(); id++ {
		c, _ := o.Class(id)
		kind := "other"
		switch {
		case strings.HasPrefix(c.Name, "wikicategory_"):
			kind = "wikicategory"
		case strings.HasPrefix(c.Name, "wordnet_"):
			kind = "wordnet"
		}
		b := counts[kind]
		if b == nil {
			b = &CategoryBand{Kind: kind}
			counts[kind] = b
			order = append(order, kind)
		}
		b.Classes++
		if o.DirectInstanceCount(id) > 0 {
			b.WithInstances++
		}
	}
	sort.Strings(order)
	out := make([]CategoryBand, 0, len(order))
	for _, k := range order {
		out = append(out, *counts[k])
	}
	return out
}

// InstanceBand is one row of the instance-distribution analysis
// (Table 6.2): classes bucketed by direct instance count.
type InstanceBand struct {
	Label     string
	MinCount  int
	MaxCount  int // inclusive; -1 = unbounded
	Classes   int
	Instances int
}

// InstanceDistribution buckets classes by their direct instance counts,
// reproducing the Table 6.2 analysis (most YAGO instances sit in classes
// with few instances each — the fine-grained leaves).
func InstanceDistribution(o *ontology.Ontology) []InstanceBand {
	bands := []InstanceBand{
		{Label: "0", MinCount: 0, MaxCount: 0},
		{Label: "1-10", MinCount: 1, MaxCount: 10},
		{Label: "11-100", MinCount: 11, MaxCount: 100},
		{Label: "101-1000", MinCount: 101, MaxCount: 1000},
		{Label: ">1000", MinCount: 1001, MaxCount: -1},
	}
	for id := 0; id < o.NumClasses(); id++ {
		n := o.DirectInstanceCount(id)
		for i := range bands {
			if n >= bands[i].MinCount && (bands[i].MaxCount < 0 || n <= bands[i].MaxCount) {
				bands[i].Classes++
				bands[i].Instances += n
				break
			}
		}
	}
	return bands
}

// DomainOverlap is one row of the shared-instance analysis (Figure 6.2).
type DomainOverlap struct {
	Domain string
	// Tables in the domain.
	Tables int
	// Instances across the domain's tables (with multiplicity removed).
	Instances int
	// Shared instances also present in the ontology.
	Shared int
}

// SharedFraction returns Shared/Instances (0 for empty domains).
func (d DomainOverlap) SharedFraction() float64 {
	if d.Instances == 0 {
		return 0
	}
	return float64(d.Shared) / float64(d.Instances)
}

// SharedInstancesByDomain computes, per database domain, how many of the
// domain's instances also occur in the ontology (Figure 6.2).
// instancesOf maps table -> instance ids; domainOf maps table -> domain.
func SharedInstancesByDomain(o *ontology.Ontology, instancesOf map[string][]string, domainOf map[string]string) []DomainOverlap {
	inOnto := make(map[string]bool)
	for _, inst := range o.InstancesBelow(o.Root()) {
		inOnto[inst] = true
	}
	perDomain := map[string]map[string]bool{}
	tables := map[string]int{}
	for table, insts := range instancesOf {
		d := domainOf[table]
		set := perDomain[d]
		if set == nil {
			set = make(map[string]bool)
			perDomain[d] = set
		}
		tables[d]++
		for _, i := range insts {
			set[i] = true
		}
	}
	domains := make([]string, 0, len(perDomain))
	for d := range perDomain {
		domains = append(domains, d)
	}
	sort.Strings(domains)
	out := make([]DomainOverlap, 0, len(domains))
	for _, d := range domains {
		row := DomainOverlap{Domain: d, Tables: tables[d], Instances: len(perDomain[d])}
		for i := range perDomain[d] {
			if inOnto[i] {
				row.Shared++
			}
		}
		out = append(out, row)
	}
	return out
}

// Match is one table-to-class assignment produced by the matcher.
type Match struct {
	Table     string
	Class     int
	ClassName string
	// Score is the fraction of the table's instances covered by the
	// class's direct instances.
	Score float64
}

// MatchConfig tunes the matcher.
type MatchConfig struct {
	// Threshold is the minimum coverage score for a match (Figure 6.4
	// sweeps it).
	Threshold float64
	// ConceptClassesOnly restricts candidates to non-leaf-category
	// classes (names without the wikicategory prefix). The thesis matches
	// Freebase tables against YAGO's conceptual classes.
	ConceptClassesOnly bool
}

// MatchTables matches every table to the class with the highest instance
// coverage, keeping matches at or above the threshold (Section 6.5).
// Ties break towards the deeper (more specific) class, then by name.
func MatchTables(o *ontology.Ontology, instancesOf map[string][]string, cfg MatchConfig) []Match {
	// Invert the ontology's instance sets once.
	classesOf := make(map[string][]int)
	for id := 0; id < o.NumClasses(); id++ {
		if cfg.ConceptClassesOnly {
			c, _ := o.Class(id)
			if strings.HasPrefix(c.Name, "wikicategory_") {
				continue
			}
		}
		for _, inst := range o.DirectInstances(id) {
			classesOf[inst] = append(classesOf[inst], id)
		}
	}
	tables := make([]string, 0, len(instancesOf))
	for t := range instancesOf {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	var out []Match
	for _, table := range tables {
		insts := instancesOf[table]
		if len(insts) == 0 {
			continue
		}
		overlap := map[int]int{}
		for _, inst := range insts {
			for _, cid := range classesOf[inst] {
				overlap[cid]++
			}
		}
		bestClass, bestCount := -1, 0
		for cid, n := range overlap {
			if better(o, cid, n, bestClass, bestCount) {
				bestClass, bestCount = cid, n
			}
		}
		if bestClass < 0 {
			continue
		}
		score := float64(bestCount) / float64(len(insts))
		if score < cfg.Threshold {
			continue
		}
		c, _ := o.Class(bestClass)
		out = append(out, Match{Table: table, Class: bestClass, ClassName: c.Name, Score: score})
	}
	return out
}

// better orders candidate classes: higher overlap wins; ties prefer the
// deeper class, then the lexicographically smaller name (determinism).
func better(o *ontology.Ontology, cid, n, bestClass, bestCount int) bool {
	if bestClass < 0 || n > bestCount {
		return true
	}
	if n < bestCount {
		return false
	}
	c, _ := o.Class(cid)
	b, _ := o.Class(bestClass)
	if c.Depth != b.Depth {
		return c.Depth > b.Depth
	}
	return c.Name < b.Name
}

// Apply maps the matched tables into the ontology, producing the YAGO+F
// structure.
func Apply(o *ontology.Ontology, matches []Match) {
	for _, m := range matches {
		o.MapTable(m.Class, m.Table)
	}
}

// Stats characterises a YAGO+F structure (Table 6.3).
type Stats struct {
	Classes           int
	ClassesWithTables int
	MatchedTables     int
	UnmatchedTables   int
	// MeanScore is the average match score.
	MeanScore float64
	// DepthHistogram counts matched tables per class depth.
	DepthHistogram []int
}

// Characterize summarises the matching over the total table count.
func Characterize(o *ontology.Ontology, matches []Match, totalTables int) Stats {
	st := Stats{Classes: o.NumClasses(), MatchedTables: len(matches)}
	st.UnmatchedTables = totalTables - len(matches)
	withTables := map[int]bool{}
	sum := 0.0
	st.DepthHistogram = make([]int, o.MaxDepth()+1)
	for _, m := range matches {
		withTables[m.Class] = true
		sum += m.Score
		c, _ := o.Class(m.Class)
		st.DepthHistogram[c.Depth]++
	}
	st.ClassesWithTables = len(withTables)
	if len(matches) > 0 {
		st.MeanScore = sum / float64(len(matches))
	}
	return st
}

// Quality is one point of the matching-quality sweep (Figure 6.4).
type Quality struct {
	Threshold float64
	Matched   int
	Correct   int
	Precision float64
	Recall    float64
	F1        float64
}

// EvaluateMatching sweeps the match threshold and scores the matcher
// against the gold standard: truth maps table -> concept name, and a
// match is correct when it lands on the class named "wordnet_<concept>"
// or any class in that class's subtree.
func EvaluateMatching(o *ontology.Ontology, instancesOf map[string][]string, truth map[string]string, thresholds []float64, cfg MatchConfig) []Quality {
	out := make([]Quality, 0, len(thresholds))
	for _, th := range thresholds {
		c := cfg
		c.Threshold = th
		matches := MatchTables(o, instancesOf, c)
		q := Quality{Threshold: th, Matched: len(matches)}
		for _, m := range matches {
			concept, ok := truth[m.Table]
			if !ok {
				continue
			}
			cid, ok := o.ByName("wordnet_" + concept)
			if !ok {
				continue
			}
			if m.Class == cid || within(o, m.Class, cid) {
				q.Correct++
			}
		}
		if q.Matched > 0 {
			q.Precision = float64(q.Correct) / float64(q.Matched)
		}
		if len(truth) > 0 {
			q.Recall = float64(q.Correct) / float64(len(truth))
		}
		if q.Precision+q.Recall > 0 {
			q.F1 = 2 * q.Precision * q.Recall / (q.Precision + q.Recall)
		}
		out = append(out, q)
	}
	return out
}

// within reports whether class id lies in the subtree rooted at root.
func within(o *ontology.Ontology, id, root int) bool {
	for id >= 0 {
		if id == root {
			return true
		}
		c, ok := o.Class(id)
		if !ok {
			return false
		}
		id = c.Parent
	}
	return false
}
