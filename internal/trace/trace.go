// Package trace is the per-request tracing substrate of the serving
// stack: one Trace travels with a request through context.Context —
// httpapi → Engine → topk → plan execution — and records where the time
// went (stage spans), how much work each layer did (counters), and
// one-off facts worth keeping (annotations).
//
// The design constraint is the disabled path: every recording method is
// a nil-receiver no-op, and code under instrumentation holds a *Trace
// obtained once per request via FromContext (nil when tracing is off).
// A request served with tracing disabled therefore pays one context
// lookup per layer and a handful of nil checks — nothing else — which
// is what the byte-identical differential and the overhead benchmark
// pin (docs/observability.md).
//
// Two recording granularities keep trace size bounded under fan-out:
//
//   - Spans carry start offsets and durations for the once-per-request
//     stages (parse, interpret, rank, execute, previews), forming a tree
//     via parent indexes — the waterfall a slow-query dump renders.
//   - Counters accumulate high-frequency events (plan execution
//     nanoseconds, plan executions, cache hits) that would explode the
//     span list if each occurrence were its own span: a 50-interpretation
//     top-k is 50+ executions but only a handful of counters.
//
// All methods are safe for concurrent use: the interpretation pipeline's
// workers record into the same Trace the request owns.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"sync"
	"time"
)

// Trace is one request's recording area. Create with New, thread with
// NewContext/FromContext, snapshot with Snapshot. The zero *Trace (nil)
// is the disabled state: every method no-ops.
type Trace struct {
	// id is immutable after New; start anchors all span offsets to one
	// monotonic clock reading.
	id    string
	start time.Time

	mu     sync.Mutex
	spans  []SpanData
	counts map[string]int64
	notes  map[string]string
}

// SpanData is one recorded stage span. StartUS is the offset from the
// trace's creation in microseconds; Parent is the index of the parent
// span in the trace's span list (-1 for a root span), so a dump can
// render the tree without a separate structure.
type SpanData struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// Data is a JSON-marshalable snapshot of one finished (or in-flight)
// trace: the slow-query dump and the query log's stage-timing source.
type Data struct {
	ID          string            `json:"trace_id"`
	Spans       []SpanData        `json:"spans"`
	Counters    map[string]int64  `json:"counters,omitempty"`
	Annotations map[string]string `json:"annotations,omitempty"`
}

// New creates an enabled trace. id may come from the client
// (X-Trace-Id propagation); empty generates a 64-bit random hex ID.
func New(id string) *Trace {
	if id == "" {
		id = newID()
	}
	return &Trace{id: id, start: time.Now()}
}

func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a fixed ID keeps
		// tracing functional rather than panicking the request path.
		return "trace-rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// ID returns the trace ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Span is a handle on one started span; End records its duration.
// The zero Span (from a nil trace) is inert.
type Span struct {
	t     *Trace
	idx   int
	begin time.Time
}

// Start opens a root-level stage span. End the returned Span exactly
// once; ending it twice extends the recorded duration (harmless, but
// don't).
func (t *Trace) Start(name string) Span {
	return t.StartChild(name, -1)
}

// StartChild opens a span under the given parent span index (-1 for
// root). The index of the new span is Span.Index, so callers can nest
// further children under it.
//
// StartChild, End and Count are nil checks small enough to inline, so
// an untraced request pays no call at its instrumentation points; the
// recording lives in the unexported halves.
func (t *Trace) StartChild(name string, parent int) Span {
	if t == nil {
		return Span{}
	}
	return t.startChild(name, parent)
}

func (t *Trace) startChild(name string, parent int) Span {
	now := time.Now()
	t.mu.Lock()
	idx := len(t.spans)
	t.spans = append(t.spans, SpanData{
		Name:    name,
		Parent:  parent,
		StartUS: now.Sub(t.start).Microseconds(),
		DurUS:   -1, // open; End fills it
	})
	t.mu.Unlock()
	return Span{t: t, idx: idx, begin: now}
}

// Index returns this span's index in the trace (for StartChild). -1 on
// an inert span.
func (s Span) Index() int {
	if s.t == nil {
		return -1
	}
	return s.idx
}

// End closes the span, recording its duration.
func (s Span) End() {
	if s.t != nil {
		s.end()
	}
}

func (s Span) end() {
	d := time.Since(s.begin).Microseconds()
	s.t.mu.Lock()
	s.t.spans[s.idx].DurUS = d
	s.t.mu.Unlock()
}

// Count adds delta to the named counter. Counters are the aggregation
// channel for high-frequency events: plan execution time, plan
// executions, cache hits.
func (t *Trace) Count(name string, delta int64) {
	if t != nil {
		t.count(name, delta)
	}
}

func (t *Trace) count(name string, delta int64) {
	t.mu.Lock()
	if t.counts == nil {
		t.counts = make(map[string]int64, 8)
	}
	t.counts[name] += delta
	t.mu.Unlock()
}

// CountDuration accumulates a duration (as nanoseconds) into the named
// counter — the execution-time channel.
func (t *Trace) CountDuration(name string, d time.Duration) {
	t.Count(name, d.Nanoseconds())
}

// Annotate records a one-off key → value fact (cache hit, shed reason,
// chosen interpretation). Later values overwrite earlier ones.
func (t *Trace) Annotate(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.notes == nil {
		t.notes = make(map[string]string, 4)
	}
	t.notes[key] = value
	t.mu.Unlock()
}

// Snapshot copies the trace's current state. Open spans report DurUS
// -1. The copy shares nothing with the live trace, so it is safe to
// hand to an async writer while pipeline workers keep recording.
func (t *Trace) Snapshot() Data {
	if t == nil {
		return Data{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := Data{ID: t.id, Spans: make([]SpanData, len(t.spans))}
	copy(d.Spans, t.spans)
	if len(t.counts) > 0 {
		d.Counters = make(map[string]int64, len(t.counts))
		for k, v := range t.counts {
			d.Counters[k] = v
		}
	}
	if len(t.notes) > 0 {
		d.Annotations = make(map[string]string, len(t.notes))
		for k, v := range t.notes {
			d.Annotations[k] = v
		}
	}
	return d
}

// StageDurations flattens the snapshot's spans to name → microseconds
// (summing repeated names), the shape the query log records. Counters
// that accumulate nanoseconds (suffix "_ns") are folded in as
// microseconds under their name without the suffix, so plan execution
// time appears alongside the stage spans.
func (d Data) StageDurations() map[string]int64 {
	if len(d.Spans) == 0 && len(d.Counters) == 0 {
		return nil
	}
	out := make(map[string]int64, len(d.Spans))
	for _, sp := range d.Spans {
		if sp.DurUS >= 0 {
			out[sp.Name] += sp.DurUS
		}
	}
	for k, v := range d.Counters {
		if n := len(k); n > 3 && k[n-3:] == "_ns" {
			out[k[:n-3]+"_us"] += v / 1e3
		}
	}
	return out
}

// JSON renders the snapshot as one line of JSON — the slow-query dump
// format.
func (d Data) JSON() []byte {
	b, err := json.Marshal(d)
	if err != nil {
		// Data contains only marshalable types; unreachable.
		return []byte(`{"trace_id":"marshal-error"}`)
	}
	return b
}

// ctxKey is the context key type for trace plumbing.
type ctxKey struct{}

// NewContext returns ctx carrying the trace. A nil trace returns ctx
// unchanged, so the disabled path never grows the context chain.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the request's trace, or nil when tracing is
// disabled — the nil *Trace is the no-op recording target.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
