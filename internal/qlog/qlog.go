// Package qlog is the structured query log: one JSONL line per served
// request, written by a single background goroutine fed from a bounded
// ring so the serving path never blocks on disk.
//
// The log is the substrate for the ROADMAP's ranking feedback loop —
// it records the keywords, the interpretation the engine chose, the
// interpretation the user ultimately accepted in a /v1/construct
// session, and what the request cost — so an offline job can fold
// selection counts back into the prob model's priors.
//
// Delivery semantics are deliberately lossy under pressure: when the
// ring is full the OLDEST queued entry is dropped to admit the new one
// (recent traffic is worth more to a feedback loop than stale), and a
// dropped counter records the loss exactly: every entry handed to Log
// ends up counted as written or as dropped, never both, never neither.
// Files rotate by size (`queries-%06d.jsonl`) and old files are pruned
// beyond a cap, bounding disk usage without an external logrotate.
package qlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Entry is one served request. Fields are omitted when empty so quick
// one-off greps stay readable; the decoder tolerates both.
type Entry struct {
	// TS is the completion time in RFC3339Nano (stamped by Log if zero).
	TS string `json:"ts"`
	// TraceID correlates the line with the server trace and the
	// client's X-Trace-Id (loadtest propagates its own IDs).
	TraceID string `json:"trace_id,omitempty"`
	// Op is the endpoint kind: search, rows, diversify, construct,
	// mutate, keywords, checkpoint.
	Op string `json:"op"`
	// Status is the HTTP status code served.
	Status int `json:"status"`
	// Outcome classifies the result: ok, error, shed, timeout.
	Outcome string `json:"outcome,omitempty"`

	// Query is the raw keyword string ("" for non-query ops).
	Query string `json:"query,omitempty"`
	// Interpretation is the engine's top-ranked (served) interpretation
	// in display form; InterpretationProb its model probability.
	Interpretation     string  `json:"interpretation,omitempty"`
	InterpretationProb float64 `json:"interpretation_prob,omitempty"`

	// Construct-session fields: the feedback signal. Action is the
	// step verb (start/accept/reject/candidates/cancel); ServedChoice
	// is the interpretation the finished session settled on — the
	// "user selected" label the feedback loop trains on.
	SessionID    string `json:"session_id,omitempty"`
	Action       string `json:"action,omitempty"`
	Done         bool   `json:"done,omitempty"`
	ServedChoice string `json:"served_choice,omitempty"`

	// Cost accounting: the admission estimate vs what actually
	// happened.
	EstimatedCost int64 `json:"estimated_cost,omitempty"`
	DurationUS    int64 `json:"duration_us"`
	Results       int   `json:"results,omitempty"`

	// StagesUS is the flattened trace: stage name → microseconds.
	StagesUS map[string]int64 `json:"stages_us,omitempty"`
	// Counters carries trace counters (cache hits, plans executed).
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Options tunes the logger; zero values take the defaults below.
type Options struct {
	// MaxFileBytes rotates the current file when it exceeds this size
	// (default 16 MiB).
	MaxFileBytes int64
	// MaxFiles caps retained rotated files, oldest pruned first
	// (default 8).
	MaxFiles int
	// Buffer is the ring depth between serving path and writer
	// (default 1024).
	Buffer int
}

const (
	defaultMaxFileBytes = 16 << 20
	defaultMaxFiles     = 8
	defaultBuffer       = 1024
	filePrefix          = "queries-"
	fileSuffix          = ".jsonl"
)

// Logger is the async writer. Log never blocks; Close flushes.
type Logger struct {
	dir  string
	opts Options

	// mu guards the ring: queued entries starting at head, oldest
	// first. Evicting the oldest and admitting the newcomer is one
	// critical section, which is what makes the drop count exact.
	mu           sync.Mutex
	nonEmpty     *sync.Cond // signalled when the ring gains an entry or closes
	ring         []Entry
	head, queued int
	closed       bool
	done         chan struct{}
	dropped      atomic.Int64
	written      atomic.Int64

	// writer-goroutine state (no locking: single owner).
	f   *os.File
	w   *bufio.Writer
	n   int64 // bytes in the current file
	seq int   // current file sequence number
}

// Open creates (or appends into) a query log in dir. The directory is
// created if absent; writing resumes after the highest existing
// sequence number so restarts never clobber history.
func Open(dir string, opts Options) (*Logger, error) {
	if opts.MaxFileBytes <= 0 {
		opts.MaxFileBytes = defaultMaxFileBytes
	}
	if opts.MaxFiles <= 0 {
		opts.MaxFiles = defaultMaxFiles
	}
	if opts.Buffer <= 0 {
		opts.Buffer = defaultBuffer
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("qlog: create dir: %w", err)
	}
	l := &Logger{
		dir:  dir,
		opts: opts,
		ring: make([]Entry, opts.Buffer),
		done: make(chan struct{}),
	}
	l.nonEmpty = sync.NewCond(&l.mu)
	seqs, err := listSeqs(dir)
	if err != nil {
		return nil, err
	}
	if len(seqs) > 0 {
		l.seq = seqs[len(seqs)-1]
	} else {
		l.seq = 1
	}
	if err := l.openFile(); err != nil {
		return nil, err
	}
	go l.run()
	return l, nil
}

// Log enqueues an entry without blocking on the writer. When the ring
// is full the oldest queued entry is overwritten and counted as dropped;
// an entry logged after Close is itself counted as dropped.
func (l *Logger) Log(e Entry) {
	if l == nil {
		return
	}
	if e.TS == "" {
		e.TS = time.Now().UTC().Format(time.RFC3339Nano)
	}
	l.mu.Lock()
	switch {
	case l.closed:
		l.dropped.Add(1)
	case l.queued == len(l.ring):
		l.ring[l.head] = e
		l.head = (l.head + 1) % len(l.ring)
		l.dropped.Add(1)
	default:
		l.ring[(l.head+l.queued)%len(l.ring)] = e
		l.queued++
	}
	l.mu.Unlock()
	l.nonEmpty.Signal()
}

// Dropped reports entries lost to backpressure since Open.
func (l *Logger) Dropped() int64 {
	if l == nil {
		return 0
	}
	return l.dropped.Load()
}

// Written reports entries durably handed to the OS since Open.
func (l *Logger) Written() int64 {
	if l == nil {
		return 0
	}
	return l.written.Load()
}

// Dir returns the log directory ("" on nil).
func (l *Logger) Dir() string {
	if l == nil {
		return ""
	}
	return l.dir
}

// Close drains queued entries, flushes, and closes the file. Safe to
// call more than once; Log after Close drops (and counts) the entry.
func (l *Logger) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.nonEmpty.Signal()
	<-l.done
	return nil
}

// next blocks until an entry is queued and pops the oldest; ok is false
// once the logger is closed and drained.
func (l *Logger) next() (e Entry, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.queued == 0 {
		if l.closed {
			return Entry{}, false
		}
		l.nonEmpty.Wait()
	}
	e, l.ring[l.head] = l.ring[l.head], Entry{}
	l.head = (l.head + 1) % len(l.ring)
	l.queued--
	return e, true
}

func (l *Logger) run() {
	defer close(l.done)
	for e, ok := l.next(); ok; e, ok = l.next() {
		l.write(e)
	}
	if l.w != nil {
		l.w.Flush()
	}
	if l.f != nil {
		l.f.Close()
	}
}

func (l *Logger) write(e Entry) {
	b, err := json.Marshal(e)
	if err != nil {
		// Entry is a plain struct of marshalable fields; unreachable.
		l.dropped.Add(1)
		return
	}
	b = append(b, '\n')
	if l.n+int64(len(b)) > l.opts.MaxFileBytes && l.n > 0 {
		l.rotate()
	}
	if l.w == nil {
		l.dropped.Add(1) // disk failed at rotate
		return
	}
	if _, err := l.w.Write(b); err != nil {
		l.dropped.Add(1)
		return
	}
	l.n += int64(len(b))
	l.written.Add(1)
	// Flush per line: entries are rare relative to disk bandwidth and a
	// crash should lose at most the OS buffer, not ours.
	l.w.Flush()
}

func (l *Logger) rotate() {
	if l.w != nil {
		l.w.Flush()
	}
	if l.f != nil {
		l.f.Close()
	}
	l.seq++
	if err := l.openFile(); err != nil {
		l.f, l.w = nil, nil
		return
	}
	l.prune()
}

func (l *Logger) openFile() error {
	path := filepath.Join(l.dir, fmt.Sprintf("%s%06d%s", filePrefix, l.seq, fileSuffix))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("qlog: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("qlog: stat %s: %w", path, err)
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.n = st.Size()
	return nil
}

func (l *Logger) prune() {
	seqs, err := listSeqs(l.dir)
	if err != nil {
		return
	}
	for len(seqs) > l.opts.MaxFiles {
		old := filepath.Join(l.dir, fmt.Sprintf("%s%06d%s", filePrefix, seqs[0], fileSuffix))
		os.Remove(old)
		seqs = seqs[1:]
	}
}

// listSeqs returns the sequence numbers of existing log files in
// ascending order.
func listSeqs(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("qlog: read dir: %w", err)
	}
	var seqs []int
	for _, de := range ents {
		name := de.Name()
		if !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileSuffix) {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, filePrefix), fileSuffix)
		n, err := strconv.Atoi(num)
		if err != nil || n <= 0 {
			continue
		}
		seqs = append(seqs, n)
	}
	sort.Ints(seqs)
	return seqs, nil
}

// Decode reads every entry from one JSONL stream in order — the
// offline-job entry point and the round-trip test's oracle. Blank
// lines are skipped; a malformed line aborts with its line number.
func Decode(data []byte) ([]Entry, error) {
	var out []Entry
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var e Entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("qlog: line %d: %w", i+1, err)
		}
		out = append(out, e)
	}
	return out, nil
}

// ReadAll decodes every retained log file in dir, oldest first.
func ReadAll(dir string) ([]Entry, error) {
	seqs, err := listSeqs(dir)
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, s := range seqs {
		b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%s%06d%s", filePrefix, s, fileSuffix)))
		if err != nil {
			return nil, err
		}
		es, err := Decode(b)
		if err != nil {
			return nil, err
		}
		out = append(out, es...)
	}
	return out, nil
}
