package keysearch

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/durable"
)

// durQueries are the differential queries of the durability tests; they
// cover value matches, joins, and multi-keyword interpretation over the
// small movie fixture.
var durQueries = []string{"tom", "london", "hanks terminal"}

// churnedEngine is the small movie engine after a few mutation batches,
// so snapshots carry tombstones, a RowID high-water mark above NumLive,
// and an epoch > 0.
func churnedEngine(t testing.TB, opts ...Option) *Engine {
	t.Helper()
	eng := mutableEngine(t, opts...)
	batches := [][]Mutation{
		{
			{Op: OpInsert, Table: "actor", Values: []string{"a4", "Meg Ryan"}},
			{Op: OpInsert, Table: "acts", Values: []string{"a4", "m1", "Amelia"}},
		},
		{
			{Op: OpUpdate, Table: "movie", Key: "m2", Values: []string{"m2", "London Boulevard Redux", "2010"}},
			{Op: OpDelete, Table: "actor", Key: "a2"},
		},
		{
			{Op: OpInsert, Table: "movie", Values: []string{"m3", "Sleepless Sky", "1993"}},
			{Op: OpDelete, Table: "actor", Key: "a4"},
		},
	}
	for _, b := range batches {
		if _, err := eng.Apply(bg, b); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

func TestSaveOpenSnapshotRoundTrip(t *testing.T) {
	eng := churnedEngine(t)
	var buf bytes.Buffer
	if err := eng.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := OpenSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch() != eng.Epoch() {
		t.Fatalf("Epoch = %d, want %d", got.Epoch(), eng.Epoch())
	}
	if got.NumRows() != eng.NumRows() || got.NumTemplates() != eng.NumTemplates() {
		t.Fatalf("shape: %d rows / %d templates, want %d / %d",
			got.NumRows(), got.NumTemplates(), eng.NumRows(), eng.NumTemplates())
	}
	t.Run("persisted-indexes", func(t *testing.T) {
		compareEngines(t, got, eng, durQueries)
	})
	// The persisted posting lists, which carry every term statistic the
	// index reads, must never diverge from ones re-derived from the
	// rows: a fresh Build over the reopened engine's rows is the oracle.
	t.Run("rebuilt-indexes", func(t *testing.T) {
		compareEngines(t, got, rebuiltEngine(t, got), durQueries)
	})
}

// TestSnapshotByteStability: saving twice yields identical bytes, and a
// reopened engine re-saves to the same bytes — the content-addressable
// contract of the snapshot format.
func TestSnapshotByteStability(t *testing.T) {
	eng := churnedEngine(t)
	var first, second bytes.Buffer
	if err := eng.SaveSnapshot(&first); err != nil {
		t.Fatal(err)
	}
	// Run queries in between: lazily built structures must not leak into
	// the encoding.
	compareEngines(t, eng, eng, durQueries[:1])
	if err := eng.SaveSnapshot(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("same engine saved different bytes across calls")
	}

	reopened, err := OpenSnapshot(bytes.NewReader(first.Bytes()), WithMutations())
	if err != nil {
		t.Fatal(err)
	}
	var resaved bytes.Buffer
	if err := reopened.SaveSnapshot(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), resaved.Bytes()) {
		t.Fatal("open→save did not reproduce the snapshot bytes")
	}
}

// TestOpenSnapshotPersistsOptions: build-shaping options survive the
// round trip without being re-passed.
func TestOpenSnapshotPersistsOptions(t *testing.T) {
	eng := builtEngine(t, WithAggregates(), WithCoOccurrence(), WithMaxJoinPath(3), WithSchemaTerms(), WithSegmentPhrases())
	var buf bytes.Buffer
	if err := eng.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := OpenSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTemplates() != eng.NumTemplates() {
		t.Fatalf("templates = %d, want %d (join-path bound lost?)", got.NumTemplates(), eng.NumTemplates())
	}
	// Aggregate syntax must still parse (WithAggregates persisted), and a
	// table name must still match as a schema term (WithSchemaTerms).
	for _, q := range []string{"number tom", "movie terminal", "tom hanks"} {
		wantResp, wantErr := eng.Search(bg, SearchRequest{Query: q, K: 3})
		want := asJSON(t, wantResp, wantErr)
		gotResp, gotErr := got.Search(bg, SearchRequest{Query: q, K: 3})
		if gotJSON := asJSON(t, gotResp, gotErr); gotJSON != want {
			t.Fatalf("search %q diverged:\n got %s\nwant %s", q, gotJSON, want)
		}
	}
	resp, err := got.Search(bg, SearchRequest{Query: "movie terminal"})
	if err != nil {
		t.Fatal(err)
	}
	const schemaTerm = "movie()|0:movie=table:movie@0;1:terminal=value:movie.title@0;"
	var keys []string
	for _, r := range resp.Results {
		keys = append(keys, r.q.Key())
	}
	if !slices.Contains(keys, schemaTerm) {
		t.Fatalf("schema-term reading %s missing from %v", schemaTerm, keys)
	}
}

// TestOpenSnapshotKeepsSavedShape: the build shape in the snapshot wins
// over the same options passed to OpenSnapshot, because the persisted
// index and usage counts were derived under it.
func TestOpenSnapshotKeepsSavedShape(t *testing.T) {
	eng := builtEngine(t, WithMaxJoinPath(3))
	var buf bytes.Buffer
	if err := eng.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := OpenSnapshot(bytes.NewReader(buf.Bytes()), WithMaxJoinPath(4), WithCoOccurrence(), WithAggregates())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTemplates() != eng.NumTemplates() {
		t.Fatalf("templates = %d, want the saved shape's %d", got.NumTemplates(), eng.NumTemplates())
	}
	compareEngines(t, got, eng, append(durQueries, "number tom"))
}

// TestOpenSnapshotRefusesRetiredValues: the meta section keeps slots for
// the ATF smoothing and the phrase threshold, which are no longer engine
// options. A snapshot holding the only values the engine serves opens; any
// other value is refused rather than silently served differently.
func TestOpenSnapshotRefusesRetiredValues(t *testing.T) {
	var buf bytes.Buffer
	if err := builtEngine(t).SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		alpha, threshold float64
		segment          bool
		refused          string
	}{
		{alpha: 0},
		{alpha: 1},
		{alpha: 0, segment: true, threshold: 0.8},
		{alpha: 0, threshold: 0.3}, // segmentation off: the slot is unused
		{alpha: 0.5, refused: "alpha"},
		{alpha: 0, segment: true, threshold: 0.7, refused: "phrase threshold"},
	} {
		raw := replaceMeta(t, buf.Bytes(), func(m *durable.Enc) {
			m.Uvarint(0) // epoch
			m.Int(4)     // join-path bound
			m.Int(0)     // template cap
			m.Bool(false)
			m.Float(tc.alpha)
			m.Bool(false)
			m.Bool(tc.segment)
			m.Float(tc.threshold)
			m.Bool(false)
		})
		_, err := OpenSnapshot(bytes.NewReader(raw))
		switch {
		case tc.refused == "" && err != nil:
			t.Errorf("%+v refused: %v", tc, err)
		case tc.refused != "" && (err == nil || !strings.Contains(err.Error(), tc.refused)):
			t.Errorf("%+v: err = %v, want a refusal naming %q", tc, err, tc.refused)
		}
	}
}

// TestOpenSnapshotBoundsJoinPath: a snapshot whose meta names a
// join-path bound above maxJoinPathLimit, its checksum recomputed, is
// refused before any template is enumerated, on the movies schema whose
// catalogue at bound 20 would take hours to build; a bound at the limit
// opens, and Build refuses what OpenSnapshot refuses.
func TestOpenSnapshotBoundsJoinPath(t *testing.T) {
	db, err := datagen.IMDB(datagen.IMDBConfig{Movies: 200, Actors: 150, Directors: 40, Companies: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	movies, err := NewFromDatabase(db, WithMaxJoinPath(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := movies.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = OpenSnapshot(bytes.NewReader(withJoinPath(t, buf.Bytes(), 20)))
	if err == nil || !strings.Contains(err.Error(), "join-path bound 20") {
		t.Fatalf("bound 20: err = %v, want a refusal", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("refusing bound 20 took %v", d)
	}

	buf.Reset()
	if err := builtEngine(t).SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := OpenSnapshot(bytes.NewReader(withJoinPath(t, buf.Bytes(), maxJoinPathLimit)))
	if err != nil || got.cfg.maxJoinPath != maxJoinPathLimit {
		t.Fatalf("bound %d: err = %v", maxJoinPathLimit, err)
	}
	if _, err := OpenSnapshot(bytes.NewReader(withJoinPath(t, buf.Bytes(), maxJoinPathLimit+1))); err == nil {
		t.Fatalf("bound %d opened", maxJoinPathLimit+1)
	}
	if _, err := New(movieSchema(), WithMaxJoinPath(maxJoinPathLimit+1)); err == nil {
		t.Fatalf("New accepted bound %d", maxJoinPathLimit+1)
	}
	if _, err := NewFromDatabase(db, WithMaxJoinPath(maxJoinPathLimit+1)); err == nil {
		t.Fatalf("Build accepted bound %d", maxJoinPathLimit+1)
	}
}

// withJoinPath rewrites a snapshot container's meta join-path bound to
// n, keeping every other field and section, with checksums recomputed.
func withJoinPath(tb testing.TB, snap []byte, n int) []byte {
	tb.Helper()
	secs := readSections(tb, snap)
	for i := range secs {
		if secs[i].name == sectionMeta {
			old := durable.NewDec(secs[i].payload)
			var m durable.Enc
			m.Uvarint(old.Uvarint())
			old.Int()
			m.Int(n)
			secs[i].payload = append(m.Bytes(), secs[i].payload[len(secs[i].payload)-old.Remaining():]...)
		}
	}
	out, ok := writeSections(secs)
	if !ok {
		tb.Fatal("could not write the sections")
	}
	return out
}

// replaceMeta rewrites a snapshot container with its meta section
// re-encoded by write and every other section copied unchanged.
func replaceMeta(t *testing.T, snap []byte, write func(*durable.Enc)) []byte {
	t.Helper()
	secs := readSections(t, snap)
	for i := range secs {
		if secs[i].name == sectionMeta {
			var m durable.Enc
			write(&m)
			secs[i].payload = m.Bytes()
		}
	}
	out, ok := writeSections(secs)
	if !ok {
		t.Fatal("could not write the sections")
	}
	return out
}

func TestOpenSnapshotRejectsGarbage(t *testing.T) {
	if _, err := OpenSnapshot(bytes.NewReader([]byte("definitely not a snapshot"))); err == nil {
		t.Fatal("garbage accepted")
	}
	eng := builtEngine(t)
	var buf bytes.Buffer
	if err := eng.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)/2] ^= 0x20
	if _, err := OpenSnapshot(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("checksum corruption accepted")
	}
	if _, err := OpenSnapshot(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

// durableEngine builds the small movie engine durably into a temp dir.
func durableEngine(t *testing.T, dir string, opts ...Option) *Engine {
	t.Helper()
	return builtEngine(t, append([]Option{
		WithMutations(),
		WithDurability(dir),
		// A long interval keeps the background policy out of the tests'
		// way; explicit Checkpoint calls drive the assertions.
		WithCheckpointPolicy(time.Hour, 1<<30),
	}, opts...)...)
}

func TestDurableBuildRecoverAfterCrash(t *testing.T) {
	dir := t.TempDir()
	eng := durableEngine(t, dir)
	for _, b := range [][]Mutation{
		{{Op: OpInsert, Table: "actor", Values: []string{"a4", "Meg Ryan"}}},
		{{Op: OpDelete, Table: "actor", Key: "a2"},
			{Op: OpUpdate, Table: "movie", Key: "m1", Values: []string{"m1", "The Terminal Director's Cut", "2004"}}},
	} {
		if _, err := eng.Apply(bg, b); err != nil {
			t.Fatal(err)
		}
	}
	// No Close, no Checkpoint: simulate a crash by just reopening the
	// directory. Both WAL batches must replay on the epoch-0 snapshot.
	got, err := Open(dir, WithMutations())
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.Epoch() != 2 {
		t.Fatalf("recovered epoch = %d, want 2", got.Epoch())
	}
	if got.PendingWALBatches() != 2 || got.LastCheckpointEpoch() != 0 {
		t.Fatalf("recovery counters: pending=%d lastCkpt=%d, want 2/0",
			got.PendingWALBatches(), got.LastCheckpointEpoch())
	}
	compareEngines(t, got, rebuiltEngine(t, eng, WithMutations()), durQueries)
	// The recovered engine keeps accepting durable mutations.
	if _, err := got.Apply(bg, []Mutation{{Op: OpInsert, Table: "actor", Values: []string{"a9", "Rita Wilson"}}}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenMissingDirectory(t *testing.T) {
	_, err := Open(filepath.Join(t.TempDir(), "never-built"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v, want fs.ErrNotExist (open-or-build contract)", err)
	}
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	eng := durableEngine(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := eng.Apply(bg, []Mutation{
			{Op: OpInsert, Table: "actor", Values: []string{fmt.Sprintf("ck%d", i), "Churn Person"}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if eng.PendingWALBatches() != 3 {
		t.Fatalf("pending = %d, want 3", eng.PendingWALBatches())
	}
	stats, err := eng.Checkpoint(bg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epoch != 3 || stats.WALBatchesDropped != 3 {
		t.Fatalf("stats = %+v, want epoch 3, dropped 3", stats)
	}
	if eng.PendingWALBatches() != 0 || eng.LastCheckpointEpoch() != 3 {
		t.Fatalf("post-checkpoint counters: pending=%d lastCkpt=%d", eng.PendingWALBatches(), eng.LastCheckpointEpoch())
	}
	if raw, _ := os.ReadFile(filepath.Join(dir, walFileName)); len(raw) != 0 {
		t.Fatalf("WAL holds %d bytes after checkpoint", len(raw))
	}
	// Recovery now reads the snapshot alone and matches the live engine.
	got, err := Open(dir, WithMutations())
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.Epoch() != 3 || got.PendingWALBatches() != 0 {
		t.Fatalf("recovered epoch=%d pending=%d, want 3/0", got.Epoch(), got.PendingWALBatches())
	}
	compareEngines(t, got, eng, durQueries)
}

func TestCheckpointRequiresDurability(t *testing.T) {
	eng := mutableEngine(t)
	if _, err := eng.Checkpoint(bg); !errors.Is(err, ErrDurabilityDisabled) {
		t.Fatalf("err = %v, want ErrDurabilityDisabled", err)
	}
	if eng.Durable() || eng.DataDir() != "" {
		t.Fatal("memory-only engine reports durability")
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close on memory-only engine: %v", err)
	}
}

// TestCheckpointCompaction: an insert/delete churn loop drives the
// dead/live ratio of actor far past the threshold; the checkpoint must
// compact it back below and leave responses byte-identical.
func TestCheckpointCompaction(t *testing.T) {
	dir := t.TempDir()
	eng := durableEngine(t, dir)
	for round := 0; round < 20; round++ {
		key := fmt.Sprintf("churn%d", round)
		if _, err := eng.Apply(bg, []Mutation{
			{Op: OpInsert, Table: "actor", Values: []string{key, "Transient Churner"}},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Apply(bg, []Mutation{{Op: OpDelete, Table: "actor", Key: key}}); err != nil {
			t.Fatal(err)
		}
	}
	beforeResp, beforeErr := eng.Search(bg, SearchRequest{Query: "tom", K: 5, RowLimit: 2})
	before := asJSON(t, beforeResp, beforeErr)

	stats, err := eng.Checkpoint(bg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range stats.Compacted {
		if name == "actor" {
			found = true
		}
	}
	if !found {
		t.Fatalf("actor not compacted (stats %+v)", stats)
	}
	// The dead/live bound holds on the published snapshot.
	s := eng.current()
	for _, tb := range s.db.Tables() {
		if r := tb.DeadRatio(); r > compactRatio {
			t.Fatalf("table %s dead ratio %.2f above threshold after compaction", tb.Schema.Name, r)
		}
	}
	afterResp, afterErr := eng.Search(bg, SearchRequest{Query: "tom", K: 5, RowLimit: 2})
	if after := asJSON(t, afterResp, afterErr); after != before {
		t.Fatalf("compaction changed responses:\n before %s\n after  %s", before, after)
	}
	compareEngines(t, eng, rebuiltEngine(t, eng, WithMutations()), durQueries)

	// And the compacted state is what recovery restores.
	got, err := Open(dir, WithMutations())
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	compareEngines(t, got, eng, durQueries)
}

func TestCloseRunsFinalCheckpoint(t *testing.T) {
	dir := t.TempDir()
	eng := durableEngine(t, dir)
	if _, err := eng.Apply(bg, []Mutation{{Op: OpInsert, Table: "actor", Values: []string{"a8", "Final Flush"}}}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if raw, _ := os.ReadFile(filepath.Join(dir, walFileName)); len(raw) != 0 {
		t.Fatalf("WAL not flushed by Close (%d bytes)", len(raw))
	}
	// Reads keep working; writes fail (their log is closed).
	if _, err := eng.Search(bg, SearchRequest{Query: "flush", K: 1}); err != nil {
		t.Fatalf("read after Close: %v", err)
	}
	if _, err := eng.Apply(bg, []Mutation{{Op: OpInsert, Table: "actor", Values: []string{"a10", "Too Late"}}}); err == nil {
		t.Fatal("Apply after Close succeeded")
	}
	// Recovery sees the flushed state.
	got, err := Open(dir, WithMutations())
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if len(search(t, got, "flush", 2)) == 0 {
		t.Fatal("final batch lost")
	}
}

// TestCheckpointPolicyBatchBound: the background policy must checkpoint
// on its own once pending batches pass the bound.
func TestCheckpointPolicyBatchBound(t *testing.T) {
	dir := t.TempDir()
	eng := builtEngine(t,
		WithMutations(),
		WithDurability(dir),
		WithCheckpointPolicy(time.Hour, 2), // interval out of the way; bound at 2
	)
	defer eng.Close()
	for i := 0; i < 2; i++ {
		if _, err := eng.Apply(bg, []Mutation{
			{Op: OpInsert, Table: "actor", Values: []string{fmt.Sprintf("pb%d", i), "Policy Person"}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.LastCheckpointEpoch() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("policy checkpoint did not run (lastCkpt=%d, pending=%d)",
				eng.LastCheckpointEpoch(), eng.PendingWALBatches())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDurableConcurrentApplySearch exercises the durability paths under
// the race detector: concurrent Apply batches, searches, snapshot
// saves, and checkpoints.
func TestDurableConcurrentApplySearch(t *testing.T) {
	dir := t.TempDir()
	eng := durableEngine(t, dir)
	defer eng.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("cc-%d-%d", w, i)
				if _, err := eng.Apply(bg, []Mutation{
					{Op: OpInsert, Table: "actor", Values: []string{key, "Concurrent Person"}},
				}); err != nil {
					t.Error(err)
					return
				}
				if _, err := eng.Apply(bg, []Mutation{{Op: OpDelete, Table: "actor", Key: key}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := eng.Search(bg, SearchRequest{Query: "tom", K: 3, RowLimit: 1}); err != nil {
				t.Error(err)
				return
			}
			if err := eng.SaveSnapshot(&discard{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		if _, err := eng.Checkpoint(bg); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	compareEngines(t, eng, rebuiltEngine(t, eng, WithMutations()), durQueries[:2])
}

// discard is an io.Writer sink for concurrent SaveSnapshot calls.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// restartBatches is the WAL length of the crash-shaped directory of
// TestRestartDoesNoBuildWork; restartChurn is one of its batches: three
// transient actors inserted and deleted again, so the logical rows stay
// those of the build.
const restartBatches = 8

func restartChurn(seq int) []Mutation {
	var muts []Mutation
	for i := range 3 {
		muts = append(muts, Mutation{Op: OpInsert, Table: "actor",
			Values: []string{fmt.Sprintf("dur-%d-%d", seq, i), fmt.Sprintf("Transient Durling %d", i)}})
	}
	for i := range 3 {
		muts = append(muts, Mutation{Op: OpDelete, Table: "actor", Key: fmt.Sprintf("dur-%d-%d", seq, i)})
	}
	return muts
}

// TestRestartDoesNoBuildWork is recovery's counted guard: a restart
// decodes the saved posting lists instead of rebuilding them, and
// replays exactly the WAL records past the snapshot epoch. The engine is
// built over the demo movies at 2.5× whose postings were built and then
// forged against: in every indexed column, the first row's value is
// overwritten in place by a run of q's of the same length, so the
// postings still index the old tokens and a rebuild from the rows would
// index the q's instead. Two durable engines apply restartBatches churn
// batches; one is closed (its final checkpoint folds the WAL into the
// snapshot), the other is left as a crash leaves it (the epoch-0
// snapshot plus the whole WAL). Each directory must reopen at epoch
// restartBatches with 0 and restartBatches pending WAL batches, and with
// every indexed column's postings equal to its engine's — the forged
// ones. A decoder that drops the postings section and rebuilds from
// rows, eagerly or on first use, fails here.
func TestRestartDoesNoBuildWork(t *testing.T) {
	db, err := datagen.IMDB(datagen.IMDBConfig{Movies: 1000, Actors: 750, Directors: 200, Companies: 100, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	db.Prepare()
	forged := map[string]string{} // table.column -> forged value
	for _, tb := range db.Tables() {
		row, _ := tb.Row(0)
		for ci, c := range tb.Schema.Columns {
			if c.Indexed {
				row.Values[ci] = strings.Repeat("q", len(row.Values[ci]))
				forged[tb.Schema.Name+"."+c.Name] = row.Values[ci]
			}
		}
	}

	root := t.TempDir()
	churned := func(name string) (*Engine, string) {
		dir := filepath.Join(root, name)
		eng, err := NewFromDatabase(db, WithCoOccurrence(), WithMutations(), WithDurability(dir),
			WithCheckpointPolicy(time.Hour, 1<<30))
		if err != nil {
			t.Fatal(err)
		}
		for i := range restartBatches {
			if _, err := eng.Apply(bg, restartChurn(i)); err != nil {
				t.Fatal(err)
			}
		}
		return eng, dir
	}
	crashed, crashDir := churned("crash")
	defer crashed.Close()
	clean, cleanDir := churned("clean")
	if err := clean.Close(); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name, dir string
		saved     *Engine
		pending   int
	}{
		{"checkpointed", cleanDir, clean, 0},
		{"crash-shaped", crashDir, crashed, restartBatches},
	} {
		got, err := Open(c.dir)
		if err != nil {
			t.Fatal(err)
		}
		defer got.Close()
		if got.Epoch() != restartBatches || got.PendingWALBatches() != c.pending {
			t.Errorf("%s: reopened at epoch %d with %d pending WAL batches, want %d with %d",
				c.name, got.Epoch(), got.PendingWALBatches(), restartBatches, c.pending)
		}
		want, have := c.saved.current().db, got.current().db
		for _, tb := range want.Tables() {
			for _, col := range tb.Schema.Columns {
				if !col.Indexed {
					continue
				}
				attr := tb.Schema.Name + "." + col.Name
				wp, gp := tb.Postings(col.Name), have.Table(tb.Schema.Name).Postings(col.Name)
				if _, rows := wp.Term(forged[attr]); rows != 0 {
					t.Fatalf("%s: the saved postings index the forged value %q", attr, forged[attr])
				}
				if gp.Vocabulary() != wp.Vocabulary() || gp.Tokens() != wp.Tokens() {
					t.Errorf("%s: %s reopened with %d terms and %d tokens, saved %d and %d",
						c.name, attr, gp.Vocabulary(), gp.Tokens(), wp.Vocabulary(), wp.Tokens())
					continue
				}
				for term := range wp.Terms() {
					wc, wr := wp.Term(term)
					if gc, gr := gp.Term(term); gc != wc || gr != wr {
						t.Errorf("%s: %s term %q reopened as %d occurrences in %d rows, saved %d in %d",
							c.name, attr, term, gc, gr, wc, wr)
						break
					}
				}
			}
		}
	}
}
