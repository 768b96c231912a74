package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// CheckPromText strictly validates a text-format exposition: every
// family announced by HELP+TYPE before its samples, families
// contiguous and never reopened, names and label names well-formed, no
// duplicate sample (name + label set), values parseable, counters
// non-negative, and histogram le buckets cumulative with +Inf present
// and equal to _count. Returns nil when the payload is clean.
func CheckPromText(data []byte) error {
	type famState struct {
		typ      string
		hasHelp  bool
		closed   bool
		seen     map[string]bool // rendered sample keys for dup detection
		infCount map[string]float64
		count    map[string]float64
		lastLE   map[string]float64
		lastCum  map[string]float64
	}
	fams := make(map[string]*famState)
	var current string

	open := func(name string) *famState {
		f := fams[name]
		if f == nil {
			f = &famState{
				seen:     make(map[string]bool),
				infCount: make(map[string]float64),
				count:    make(map[string]float64),
				lastLE:   make(map[string]float64),
				lastCum:  make(map[string]float64),
			}
			fams[name] = f
		}
		return f
	}

	if len(data) > 0 && data[len(data)-1] != '\n' {
		return fmt.Errorf("prom: missing trailing newline")
	}
	lines := strings.Split(string(data), "\n")
	for ln, line := range lines {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			kind := line[2:6]
			rest := line[7:]
			sp := strings.IndexByte(rest, ' ')
			name := rest
			if sp >= 0 {
				name = rest[:sp]
			}
			if !validMetricName(name) {
				return fmt.Errorf("prom: line %d: invalid metric name %q", lineNo, name)
			}
			if current != "" && current != name && fams[current] != nil {
				fams[current].closed = true
			}
			f := open(name)
			if f.closed {
				return fmt.Errorf("prom: line %d: family %q reopened", lineNo, name)
			}
			current = name
			if kind == "HELP" {
				if f.hasHelp {
					return fmt.Errorf("prom: line %d: duplicate HELP for %q", lineNo, name)
				}
				f.hasHelp = true
			} else {
				if f.typ != "" {
					return fmt.Errorf("prom: line %d: duplicate TYPE for %q", lineNo, name)
				}
				if sp < 0 {
					return fmt.Errorf("prom: line %d: TYPE without a type", lineNo)
				}
				typ := rest[sp+1:]
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
					f.typ = typ
				default:
					return fmt.Errorf("prom: line %d: unknown type %q", lineNo, typ)
				}
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // plain comment
		}

		name, labels, value, err := parsePromSample(line)
		if err != nil {
			return fmt.Errorf("prom: line %d: %w", lineNo, err)
		}
		base := name
		suffix := ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, sfx)
			if trimmed != name {
				if f, ok := fams[trimmed]; ok && f.typ == "histogram" {
					base, suffix = trimmed, sfx
				}
				break
			}
		}
		f, ok := fams[base]
		if !ok || f.typ == "" || !f.hasHelp {
			return fmt.Errorf("prom: line %d: sample %q before HELP+TYPE", lineNo, name)
		}
		if base != current {
			return fmt.Errorf("prom: line %d: sample %q outside its family block (current %q)", lineNo, name, current)
		}
		if f.typ == "histogram" && suffix == "" {
			return fmt.Errorf("prom: line %d: bare sample %q in histogram family", lineNo, name)
		}
		if f.typ != "histogram" && suffix != "" {
			suffix = "" // _sum etc. only special for histograms
		}

		key := name + "|" + labelKey(labels, "")
		if f.seen[key] {
			return fmt.Errorf("prom: line %d: duplicate sample %s", lineNo, key)
		}
		f.seen[key] = true

		if f.typ == "counter" && value < 0 {
			return fmt.Errorf("prom: line %d: negative counter %s", lineNo, name)
		}
		if f.typ == "histogram" {
			group := labelKey(labels, "le")
			switch suffix {
			case "_bucket":
				leStr, ok := labels["le"]
				if !ok {
					return fmt.Errorf("prom: line %d: bucket without le", lineNo)
				}
				le := math.Inf(1)
				if leStr != "+Inf" {
					le, err = strconv.ParseFloat(leStr, 64)
					if err != nil {
						return fmt.Errorf("prom: line %d: bad le %q", lineNo, leStr)
					}
				}
				if prev, ok := f.lastLE[group]; ok && le <= prev {
					return fmt.Errorf("prom: line %d: le not ascending (%v after %v)", lineNo, le, prev)
				}
				if prev, ok := f.lastCum[group]; ok && value < prev {
					return fmt.Errorf("prom: line %d: bucket counts not cumulative (%v after %v)", lineNo, value, prev)
				}
				f.lastLE[group] = le
				f.lastCum[group] = value
				if math.IsInf(le, 1) {
					f.infCount[group] = value
				}
			case "_count":
				f.count[group] = value
			}
		}
	}
	for name, f := range fams {
		if f.typ == "" || !f.hasHelp {
			return fmt.Errorf("prom: family %q missing HELP or TYPE", name)
		}
		if f.typ == "histogram" {
			for group, cnt := range f.count {
				inf, ok := f.infCount[group]
				if !ok {
					return fmt.Errorf("prom: histogram %q group {%s} has no +Inf bucket", name, group)
				}
				if inf != cnt {
					return fmt.Errorf("prom: histogram %q group {%s}: +Inf %v != count %v", name, group, inf, cnt)
				}
			}
			if len(f.count) == 0 {
				return fmt.Errorf("prom: histogram %q has no _count", name)
			}
		}
	}
	return nil
}

// labelKey renders a label set deterministically, omitting one label
// name (pass "" to keep all).
func labelKey(labels map[string]string, omit string) string {
	names := make([]string, 0, len(labels))
	for n := range labels {
		if n == omit {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(labels[n])
	}
	return b.String()
}

// parsePromSample parses `name{l="v",...} value` (no timestamp support
// — the builder never emits one).
func parsePromSample(line string) (name string, labels map[string]string, value float64, err error) {
	labels = make(map[string]string)
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	name = line[:i]
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("invalid sample name %q", name)
	}
	if i < len(line) && line[i] == '{' {
		i++
		for {
			if i >= len(line) {
				return "", nil, 0, fmt.Errorf("unterminated label set")
			}
			if line[i] == '}' {
				i++
				break
			}
			j := i
			for j < len(line) && line[j] != '=' {
				j++
			}
			if j >= len(line) {
				return "", nil, 0, fmt.Errorf("label without value")
			}
			lname := line[i:j]
			if !validLabelName(lname) {
				return "", nil, 0, fmt.Errorf("invalid label name %q", lname)
			}
			if j+1 >= len(line) || line[j+1] != '"' {
				return "", nil, 0, fmt.Errorf("unquoted label value")
			}
			k := j + 2
			var val strings.Builder
			for {
				if k >= len(line) {
					return "", nil, 0, fmt.Errorf("unterminated label value")
				}
				c := line[k]
				if c == '\\' {
					if k+1 >= len(line) {
						return "", nil, 0, fmt.Errorf("dangling escape")
					}
					switch line[k+1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return "", nil, 0, fmt.Errorf("bad escape \\%c", line[k+1])
					}
					k += 2
					continue
				}
				if c == '"' {
					k++
					break
				}
				val.WriteByte(c)
				k++
			}
			if _, dup := labels[lname]; dup {
				return "", nil, 0, fmt.Errorf("duplicate label %q", lname)
			}
			labels[lname] = val.String()
			i = k
			if i < len(line) && line[i] == ',' {
				i++
			}
		}
	}
	if i >= len(line) || line[i] != ' ' {
		return "", nil, 0, fmt.Errorf("missing value separator")
	}
	valStr := strings.TrimSpace(line[i+1:])
	if valStr == "+Inf" || valStr == "-Inf" || valStr == "NaN" {
		return "", nil, 0, fmt.Errorf("non-finite sample value %q", valStr)
	}
	value, err = strconv.ParseFloat(valStr, 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q", valStr)
	}
	return name, labels, value, nil
}
