package bench

import (
	"fmt"
	"slices"
)

// Verdicts of one Check.
const (
	OK        = "ok"
	Regressed = "REGRESSED" // ratio fell more than Tolerance below baseline
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
// report: it fails when the fresh ratio is below base*(1-Tolerance), or
// when the leg, row or column is absent from cur. A baseline that holds
// anything but the one LegName leg is an error. Which rows are tracked
// is decided by shape alone — a row with a ratios entry is, whatever
// the value — and legs are matched by name.
func Compare(base, cur *Report) ([]Check, error) {
	if base.Schema != Schema || cur.Schema != Schema {
		return nil, fmt.Errorf("bench: cannot compare schema %d against schema %d (want %d)", base.Schema, cur.Schema, Schema)
	}
	if len(base.Legs) != 1 || base.Legs[0].Name != LegName {
		return nil, fmt.Errorf("bench: baseline must hold exactly the %s leg", LegName)
	}
	bl := base.Legs[0]
	li := slices.IndexFunc(cur.Legs, func(l LegReport) bool { return l.Name == bl.Name })
	if li < 0 {
		return []Check{{Leg: bl.Name, Verdict: Missing}}, nil
	}
	var out []Check
	for _, br := range bl.Rows {
		if len(br.Ratios) == 0 {
			continue
		}
		ri := slices.IndexFunc(cur.Legs[li].Rows, func(r Row) bool { return r.Name == br.Name })
		if ri < 0 {
			out = append(out, Check{Leg: bl.Name, Row: br.Name, Verdict: Missing})
			continue
		}
		for _, col := range sortedKeys(br.Ratios) {
			got, ok := cur.Legs[li].Rows[ri].Ratios[col]
			c := Check{Leg: bl.Name, Row: br.Name, Column: col, Base: br.Ratios[col], Got: got, Verdict: OK}
			switch {
			case !ok:
				c.Verdict = Missing
			case got < c.Base*(1-Tolerance):
				c.Verdict = Regressed
			}
			out = append(out, c)
		}
	}
	return out, nil
}
