package metrics

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Prometheus text-format exposition, hand-rolled (the module takes no
// dependencies). PromText is an ordered builder of metric families:
// httpapi's /metrics handler feeds it counters, gauges, and
// LatencyHistograms and writes the result. The strict parser the tests
// hold the output to (CheckPromText) is test code, in promcheck_test.go.

// Label is one name="value" pair on a sample.
type Label struct {
	Name  string
	Value string
}

// promSample is one exposition line within a family.
type promSample struct {
	suffix string // "", "_bucket", "_sum", "_count"
	labels []Label
	value  float64
}

type promFamily struct {
	name    string
	help    string
	typ     string
	samples []promSample
}

// PromText accumulates families in first-use order. Methods may be
// called repeatedly with the same name to add samples (e.g. one
// histogram per endpoint label); the first call fixes help and type.
type PromText struct {
	order []string
	fams  map[string]*promFamily
	err   error
}

// NewPromText returns an empty builder.
func NewPromText() *PromText {
	return &PromText{fams: make(map[string]*promFamily)}
}

func (p *PromText) family(name, help, typ string) *promFamily {
	if p.err != nil {
		return nil
	}
	if !validMetricName(name) {
		p.err = fmt.Errorf("prom: invalid metric name %q", name)
		return nil
	}
	f, ok := p.fams[name]
	if !ok {
		f = &promFamily{name: name, help: help, typ: typ}
		p.fams[name] = f
		p.order = append(p.order, name)
		return f
	}
	if f.typ != typ {
		p.err = fmt.Errorf("prom: metric %q redeclared as %s (was %s)", name, typ, f.typ)
		return nil
	}
	return f
}

// Counter adds one sample to a counter family. Value must be
// non-negative and finite.
func (p *PromText) Counter(name, help string, value float64, labels ...Label) {
	if value < 0 || math.IsNaN(value) || math.IsInf(value, 0) {
		p.fail(fmt.Errorf("prom: counter %q value %v", name, value))
		return
	}
	if f := p.family(name, help, "counter"); f != nil {
		f.samples = append(f.samples, promSample{labels: labels, value: value})
	}
}

// Gauge adds one sample to a gauge family.
func (p *PromText) Gauge(name, help string, value float64, labels ...Label) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		p.fail(fmt.Errorf("prom: gauge %q value %v", name, value))
		return
	}
	if f := p.family(name, help, "gauge"); f != nil {
		f.samples = append(f.samples, promSample{labels: labels, value: value})
	}
}

func (p *PromText) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// defaultSecondsBuckets are the le boundaries HistogramNS exports,
// spanning sub-millisecond cache hits to multi-second stalls.
var defaultSecondsBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// HistogramNS adds one Prometheus histogram observation set from a
// nanosecond LatencyHistogram, converted to seconds with the default
// bucket boundaries. Bucket counts come from CumulativeLE, so each
// observation lands by its ≤1.6%-error representative value; _sum and
// _count are exact.
func (p *PromText) HistogramNS(name, help string, h *LatencyHistogram, labels ...Label) {
	f := p.family(name, help, "histogram")
	if f == nil {
		return
	}
	boundsNS := make([]int64, len(defaultSecondsBuckets))
	for i, s := range defaultSecondsBuckets {
		boundsNS[i] = int64(s * float64(time.Second))
	}
	var cum []int64
	var total, sumNS int64
	if h != nil {
		cum = h.CumulativeLE(boundsNS)
		total = h.Count()
		sumNS = h.sum
	} else {
		cum = make([]int64, len(boundsNS))
	}
	for i, le := range defaultSecondsBuckets {
		f.samples = append(f.samples, promSample{
			suffix: "_bucket",
			labels: append(append([]Label{}, labels...), Label{"le", formatFloat(le)}),
			value:  float64(cum[i]),
		})
	}
	f.samples = append(f.samples,
		promSample{suffix: "_bucket", labels: append(append([]Label{}, labels...), Label{"le", "+Inf"}), value: float64(total)},
		promSample{suffix: "_sum", labels: labels, value: float64(sumNS) / float64(time.Second)},
		promSample{suffix: "_count", labels: labels, value: float64(total)},
	)
}

// CumulativeLE counts recorded observations at or below each bound (in
// the histogram's native nanosecond unit; bounds must be ascending).
// Each stored bucket contributes at its representative midpoint, so
// the result inherits the histogram's ≤1.6% quantisation error.
func (h *LatencyHistogram) CumulativeLE(boundsNS []int64) []int64 {
	out := make([]int64, len(boundsNS))
	if h.total == 0 {
		return out
	}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		mid := bucketMid(i)
		// First bound >= mid gets the count (cumulated below).
		j := sort.Search(len(boundsNS), func(k int) bool { return boundsNS[k] >= mid })
		if j < len(boundsNS) {
			out[j] += c
		}
	}
	for i := 1; i < len(out); i++ {
		out[i] += out[i-1]
	}
	return out
}

// Bytes renders the exposition. An empty builder renders to nothing; a
// misuse recorded earlier surfaces here.
func (p *PromText) Bytes() ([]byte, error) {
	if p.err != nil {
		return nil, p.err
	}
	var b bytes.Buffer
	for _, name := range p.order {
		f := p.fams[name]
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.samples {
			b.WriteString(f.name)
			b.WriteString(s.suffix)
			if len(s.labels) > 0 {
				b.WriteByte('{')
				for i, l := range s.labels {
					if !validLabelName(l.Name) {
						return nil, fmt.Errorf("prom: invalid label name %q on %s", l.Name, f.name)
					}
					if i > 0 {
						b.WriteByte(',')
					}
					b.WriteString(l.Name)
					b.WriteString(`="`)
					b.WriteString(escapeLabelValue(l.Value))
					b.WriteString(`"`)
				}
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(formatFloat(s.value))
			b.WriteByte('\n')
		}
	}
	return b.Bytes(), nil
}

// formatFloat renders a sample value the way Prometheus expects:
// shortest round-trip representation, integers without an exponent.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue applies the exposition format's escape set:
// backslash, double quote, and newline.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}
