package bench

import (
	"fmt"
	"slices"
)

// Verdicts of one Check.
const (
	OK        = "ok"
	Recorded  = "recorded"  // tolerance-0 leg: shown, never failed
	Regressed = "REGRESSED" // ratio fell more than the leg's tolerance below baseline
	Missing   = "MISSING"   // the baseline tracks it, the fresh run did not produce it
)

// Check is the verdict on one ratio the baseline tracks. Row and Column
// are empty when a whole leg (or row) is missing.
type Check struct {
	Leg, Row, Column string
	Base, Got        float64
	Verdict          string
}

// Failed reports whether the check fails the guard.
func (c Check) Failed() bool { return c.Verdict == Regressed || c.Verdict == Missing }

func (c Check) String() string {
	return fmt.Sprintf("%-9s %s/%s/%s: %.2f vs baseline %.2f", c.Verdict, c.Leg, c.Row, c.Column, c.Got, c.Base)
}

// Compare checks every ratio of every baseline row against the fresh
// report: it fails when the fresh ratio is below base*(1-Tolerance) of
// its leg, or when the leg, row or column is absent from cur. Callers
// guarding a subset of legs trim base.Legs to that subset first. Which
// rows are tracked is decided by shape alone — a row with a ratios
// entry is, whatever the value — and legs are matched by name.
func Compare(base, cur *Report) ([]Check, error) {
	if base.Schema != Schema || cur.Schema != Schema {
		return nil, fmt.Errorf("bench: cannot compare schema %d against schema %d (want %d)", base.Schema, cur.Schema, Schema)
	}
	var out []Check
	for _, bl := range base.Legs {
		legs, err := Select(bl.Name)
		if err != nil {
			return nil, fmt.Errorf("%w in baseline", err)
		}
		tol := legs[0].Tolerance
		// What a recorded-only leg did not measure (the quick topk
		// grid is a subset of the full one) is nothing to report.
		missing := func(row, col string, base float64) {
			if tol > 0 {
				out = append(out, Check{Leg: bl.Name, Row: row, Column: col, Base: base, Verdict: Missing})
			}
		}
		li := slices.IndexFunc(cur.Legs, func(l LegReport) bool { return l.Name == bl.Name })
		if li < 0 {
			missing("", "", 0)
			continue
		}
		for _, br := range bl.Rows {
			if len(br.Ratios) == 0 {
				continue
			}
			ri := slices.IndexFunc(cur.Legs[li].Rows, func(r Row) bool { return r.Name == br.Name })
			if ri < 0 {
				missing(br.Name, "", 0)
				continue
			}
			for _, col := range sortedKeys(br.Ratios) {
				got, ok := cur.Legs[li].Rows[ri].Ratios[col]
				if !ok {
					missing(br.Name, col, br.Ratios[col])
					continue
				}
				c := Check{Leg: bl.Name, Row: br.Name, Column: col, Base: br.Ratios[col], Got: got, Verdict: OK}
				switch {
				case tol == 0:
					c.Verdict = Recorded
				case got < c.Base*(1-tol):
					c.Verdict = Regressed
				}
				out = append(out, c)
			}
		}
	}
	return out, nil
}
