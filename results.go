package keysearch

import (
	"strings"

	"repro/internal/invindex"
	"repro/internal/query"
)

// parseLabeled splits a keyword query supporting the labelled syntax of
// Section 2.2.7: a token of the form "label:keyword" restricts the
// keyword to attributes whose column name (or "table.column") matches
// the label. Plain tokens are unrestricted.
func parseLabeled(keywords string) (toks []string, labels map[int]string) {
	labels = make(map[int]string)
	for _, field := range strings.Fields(keywords) {
		if i := strings.LastIndex(field, ":"); i > 0 && i < len(field)-1 {
			label := strings.ToLower(field[:i])
			kwToks := parse(field[i+1:])
			for _, kt := range kwToks {
				labels[len(toks)] = label
				toks = append(toks, kt)
			}
			continue
		}
		toks = append(toks, parse(field)...)
	}
	return toks, labels
}

// labelMatches reports whether the attribute satisfies the label: the
// label equals the column name, the table name, or "table.column".
func labelMatches(label string, attr invindex.AttrRef) bool {
	return label == attr.Column || label == attr.Table || label == attr.String()
}

// applyLabels filters each labelled keyword's candidates to the
// attributes matching its label.
func applyLabels(c *query.Candidates, labels map[int]string) {
	for pos, label := range labels {
		if pos >= len(c.PerKeyword) {
			continue
		}
		var kept []query.KeywordInterpretation
		for _, ki := range c.PerKeyword[pos] {
			switch ki.Kind {
			case query.KindValue:
				if labelMatches(label, ki.Attr) {
					kept = append(kept, ki)
				}
			default:
				// Labelled keywords are value keywords by construction.
			}
		}
		c.PerKeyword[pos] = kept
		if len(kept) == 0 {
			c.Unmatched = append(c.Unmatched, pos)
		}
	}
}

// detectSegments finds adjacent keyword pairs that form phrases: both
// unlabelled, with a phrase-pair score at or above segmentThreshold
// (Section 2.2.1's query segmentation). Runs of phrased pairs merge into
// one segment ("tom hanks movie" with phrased tom–hanks yields
// [[0 1]]). The pair scores come from the request's pinned snapshot.
func detectSegments(ix *invindex.Index, toks []string, labels map[int]string) [][]int {
	var segments [][]int
	var cur []int
	flush := func() {
		if len(cur) >= 2 {
			seg := make([]int, len(cur))
			copy(seg, cur)
			segments = append(segments, seg)
		}
		cur = nil
	}
	for i := 0; i+1 < len(toks); i++ {
		_, l1 := labels[i]
		_, l2 := labels[i+1]
		if l1 || l2 || ix.PhrasePairScore(toks[i], toks[i+1]) < segmentThreshold {
			flush()
			continue
		}
		if len(cur) == 0 {
			cur = []int{i}
		}
		cur = append(cur, i+1)
	}
	flush()
	return segments
}
