package keysearch

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/durable"
)

// TestRecoveryTornWALDifferential is the crash-recovery differential of
// the durability subsystem: the write-ahead log is killed at *every*
// byte offset of the final batch's record, and each recovered engine
// must answer byte-identically to an engine freshly built over the
// surviving rows.
//
// A cut strictly inside the final record models a crash mid-append: the
// batch was never acknowledged, so recovery must surface exactly the
// batches before it. The cut at the full length models a crash right
// after the acknowledged append but before any checkpoint: the batch
// must survive.
func TestRecoveryTornWALDifferential(t *testing.T) {
	base := t.TempDir()
	srcDir := filepath.Join(base, "src")
	eng := durableEngine(t, srcDir)
	batches := [][]Mutation{
		{{Op: OpInsert, Table: "actor", Values: []string{"a4", "Meg Ryan"}}},
		{{Op: OpDelete, Table: "actor", Key: "a2"},
			{Op: OpInsert, Table: "movie", Values: []string{"m3", "Sleepless Sky", "1993"}}},
		{{Op: OpUpdate, Table: "movie", Key: "m1", Values: []string{"m1", "The Terminal Returns", "2005"}},
			{Op: OpInsert, Table: "actor", Values: []string{"a5", "Catherine Zeta Jones"}},
			{Op: OpDelete, Table: "actor", Key: "a5"}},
	}
	for _, b := range batches {
		if _, err := eng.Apply(bg, b); err != nil {
			t.Fatal(err)
		}
	}
	snapRaw, err := os.ReadFile(filepath.Join(srcDir, snapshotFileName))
	if err != nil {
		t.Fatal(err)
	}
	walRaw, err := os.ReadFile(filepath.Join(srcDir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	// Locate the final record's start by framing the first two batches.
	var prefix []byte
	for i, b := range batches[:2] {
		prefix = durable.AppendRecord(prefix, uint64(i+1), encodeMutations(b))
	}
	finalStart := len(prefix)
	if finalStart <= 0 || finalStart >= len(walRaw) {
		t.Fatalf("bad frame arithmetic: final record at %d of %d", finalStart, len(walRaw))
	}

	for cut := finalStart; cut <= len(walRaw); cut++ {
		dir := filepath.Join(base, fmt.Sprintf("cut%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, snapshotFileName), snapRaw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walFileName), walRaw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantEpoch := uint64(2)
		if cut == len(walRaw) {
			wantEpoch = 3 // the full final record survived the crash
		}
		got, err := Open(dir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got.Epoch() != wantEpoch {
			t.Fatalf("cut %d: epoch = %d, want %d", cut, got.Epoch(), wantEpoch)
		}
		compareEngines(t, got, rebuiltEngine(t, got), durQueries)
	}
}

// TestRecoveryWALGapDetected: a WAL whose first surviving record skips
// an epoch is data loss, not a torn tail — Open must refuse it.
func TestRecoveryWALGapDetected(t *testing.T) {
	dir := t.TempDir()
	eng := durableEngine(t, dir)
	for i := 0; i < 2; i++ {
		if _, err := eng.Apply(bg, []Mutation{
			{Op: OpInsert, Table: "actor", Values: []string{fmt.Sprintf("g%d", i), "Gap Person"}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	walPath := filepath.Join(dir, walFileName)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := durable.ScanWAL(raw)
	if len(recs) != 2 {
		t.Fatalf("fixture has %d records", len(recs))
	}
	// Drop record 1 but keep record 2: epoch 2 right after snapshot 0.
	tail := durable.AppendRecord(nil, recs[1].Epoch, recs[1].Body)
	if err := os.WriteFile(walPath, tail, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("WAL epoch gap accepted")
	}
}

// TestRecoveryStaleWALSkipped: records at or below the snapshot's epoch
// (a crash between checkpoint rename and WAL truncation) are skipped,
// not replayed twice.
func TestRecoveryStaleWALSkipped(t *testing.T) {
	dir := t.TempDir()
	eng := durableEngine(t, dir)
	if _, err := eng.Apply(bg, []Mutation{
		{Op: OpInsert, Table: "actor", Values: []string{"st1", "Stale Person"}},
	}); err != nil {
		t.Fatal(err)
	}
	walRaw, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Checkpoint(bg); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn checkpoint: restore the pre-truncation WAL next
	// to the post-checkpoint snapshot.
	if err := os.WriteFile(filepath.Join(dir, walFileName), walRaw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Open(dir, WithMutations())
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.Epoch() != 1 || got.PendingWALBatches() != 0 {
		t.Fatalf("epoch=%d pending=%d, want 1/0 (stale record replayed?)", got.Epoch(), got.PendingWALBatches())
	}
	// The skipped record is not pending work, so the first checkpoint
	// must not claim to have dropped it.
	stats, err := got.Checkpoint(bg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.WALBatchesDropped != 0 {
		t.Fatalf("checkpoint dropped %d batches, want 0 (stale record counted as pending)", stats.WALBatchesDropped)
	}
	// Exactly one Stale Person row: the record was not applied twice.
	resp, err := got.Search(bg, SearchRequest{Query: "stale", K: 5, RowLimit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 || len(resp.Results[0].Preview) != 1 {
		t.Fatalf("stale-record replay check: %+v", resp.Results)
	}
	compareEngines(t, got, rebuiltEngine(t, got, WithMutations()), durQueries[:2])
}

// TestRecoveryPolicyInterval: a short-interval policy on a recovered
// engine folds the replayed tail into the snapshot without any explicit
// call.
func TestRecoveryPolicyInterval(t *testing.T) {
	dir := t.TempDir()
	eng := durableEngine(t, dir)
	if _, err := eng.Apply(bg, []Mutation{
		{Op: OpInsert, Table: "actor", Values: []string{"iv1", "Interval Person"}},
	}); err != nil {
		t.Fatal(err)
	}
	got, err := Open(dir, WithMutations(), WithCheckpointPolicy(20*time.Millisecond, 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	deadline := time.Now().Add(5 * time.Second)
	for got.PendingWALBatches() != 0 || got.LastCheckpointEpoch() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("interval policy never checkpointed (pending=%d lastCkpt=%d)",
				got.PendingWALBatches(), got.LastCheckpointEpoch())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
