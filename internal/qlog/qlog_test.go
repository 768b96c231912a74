package qlog

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestEntryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := Entry{
		TraceID:            "abc123",
		Op:                 "search",
		Status:             200,
		Outcome:            "ok",
		Query:              "actor movie 2004",
		Interpretation:     "movies(title~movie) ⋈ cast ⋈ actors(name~actor)",
		InterpretationProb: 0.41,
		EstimatedCost:      1234,
		DurationUS:         5678,
		Results:            10,
		StagesUS:           map[string]int64{"interpret": 120, "execute": 4400},
		Counters:           map[string]int64{"plans_executed": 18, "selection_cache_hits": 4},
	}
	l.Log(want)
	l.Log(Entry{
		Op: "construct", Status: 200, Outcome: "ok",
		Query: "actor movie", SessionID: "s-1", Action: "accept",
		Done: true, ServedChoice: "movies ⋈ cast ⋈ actors", DurationUS: 90,
	})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d entries, want 2", len(got))
	}
	if got[0].TS == "" {
		t.Fatal("TS not stamped")
	}
	got[0].TS = ""
	if fmt.Sprintf("%+v", got[0]) != fmt.Sprintf("%+v", want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got[0], want)
	}
	if !got[1].Done || got[1].ServedChoice != "movies ⋈ cast ⋈ actors" || got[1].Action != "accept" {
		t.Fatalf("construct feedback fields lost: %+v", got[1])
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	if _, err := Decode([]byte("{\"op\":\"search\"}\n\nnot json\n")); err == nil {
		t.Fatal("want error for malformed line")
	} else if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error should name the line: %v", err)
	}
	es, err := Decode([]byte("\n\n"))
	if err != nil || len(es) != 0 {
		t.Fatalf("blank input: %v %v", es, err)
	}
}

func TestRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	// Tiny files force a rotation every few entries; MaxFiles 3 forces
	// pruning.
	l, err := Open(dir, Options{MaxFileBytes: 256, MaxFiles: 3, Buffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	const total = 60
	for i := 0; i < total; i++ {
		l.Log(Entry{Op: "search", Status: 200, Query: fmt.Sprintf("query number %04d with some padding", i), DurationUS: int64(i)})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	seqs, err := listSeqs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) > 3 {
		t.Fatalf("prune failed: %d files retained (%v)", len(seqs), seqs)
	}
	if len(seqs) < 2 {
		t.Fatalf("rotation never happened: files %v", seqs)
	}
	// Sequence numbers must be the most recent ones.
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("non-contiguous sequences after prune: %v", seqs)
		}
	}
	// Entries that survive must be the tail of the stream, in order.
	got, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no entries survived")
	}
	last := int64(-1)
	for _, e := range got {
		if e.DurationUS <= last {
			t.Fatalf("entries out of order: %d after %d", e.DurationUS, last)
		}
		last = e.DurationUS
	}
	if last != total-1 {
		t.Fatalf("newest entry missing: last DurationUS = %d, want %d", last, total-1)
	}
}

func TestResumeAfterReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Log(Entry{Op: "search", Status: 200, DurationUS: 1})
	l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l2.Log(Entry{Op: "search", Status: 200, DurationUS: 2})
	l2.Close()

	got, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].DurationUS != 1 || got[1].DurationUS != 2 {
		t.Fatalf("reopen lost or reordered entries: %+v", got)
	}
}

// Backpressure: with the writer unable to keep up (tiny ring, many
// producers), Log must never block on it, and the accounting is exact at
// any core count: every produced entry is either on disk or counted as
// dropped. Dropping the oldest never reorders one producer's entries and
// never costs the newest entry its place.
func TestBackpressureDropsOldestWithoutBlocking(t *testing.T) {
	const producers, per = 8, 500
	for _, procs := range []int{1, 2, 8} {
		for _, buffer := range []int{1, 2, 64} {
			t.Run(fmt.Sprintf("procs=%d/buffer=%d", procs, buffer), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				dir := t.TempDir()
				l, err := Open(dir, Options{Buffer: buffer})
				if err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				for p := 0; p < producers; p++ {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						for i := 0; i < per; i++ {
							l.Log(Entry{Op: "search", Status: 200, Results: p + 1, DurationUS: int64(i)})
						}
					}(p)
				}
				wg.Wait()
				l.Log(Entry{Op: "last", Status: 200})
				l.Close()
				l.Log(Entry{Op: "late", Status: 200}) // after Close: dropped and counted
				const produced = producers*per + 2

				got, err := ReadAll(dir)
				if err != nil {
					t.Fatal(err)
				}
				if l.Written() != int64(len(got)) {
					t.Fatalf("Written() = %d but %d lines on disk", l.Written(), len(got))
				}
				if l.Written()+l.Dropped() != produced {
					t.Fatalf("written %d + dropped %d != produced %d", l.Written(), l.Dropped(), produced)
				}
				if len(got) == 0 || got[len(got)-1].Op != "last" {
					t.Fatalf("the newest entry must survive drop-oldest; %d lines on disk", len(got))
				}
				next := make([]int64, producers+1)
				for _, e := range got[:len(got)-1] {
					if e.DurationUS < next[e.Results] {
						t.Fatalf("producer %d: entry %d written after entry %d", e.Results-1, e.DurationUS, next[e.Results]-1)
					}
					next[e.Results] = e.DurationUS + 1
				}
			})
		}
	}
}

func TestNilLoggerIsInert(t *testing.T) {
	var l *Logger
	l.Log(Entry{Op: "search"})
	if l.Dropped() != 0 || l.Written() != 0 || l.Dir() != "" {
		t.Fatal("nil logger should be zeroes")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleCloseAndIgnoredFiles(t *testing.T) {
	dir := t.TempDir()
	// Foreign files in the directory must not confuse sequence listing.
	os.WriteFile(filepath.Join(dir, "README.txt"), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(dir, "queries-abc.jsonl"), []byte("x"), 0o644)
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Log(Entry{Op: "search", Status: 200})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d entries, want 1", len(got))
	}
}
