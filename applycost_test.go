package keysearch

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/datagen"
)

// insertCost builds a mutable engine over the datagen movies dataset at
// the given size (no durability), warms it with 200 one-row actor
// inserts, then returns the bytes and allocations per insert over the
// next n — the benchmark's mutateOp shape, applied in process.
func insertCost(t *testing.T, rows, n int) (bytesPer, allocsPer float64) {
	t.Helper()
	movies := max(1, rows/7)
	db, err := datagen.IMDB(datagen.IMDBConfig{
		Movies: movies, Actors: max(1, movies*3/4), Directors: max(1, movies/5),
		Companies: max(1, movies/10), Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewFromDatabase(db, WithMaxJoinPath(4), WithMutations())
	if err != nil {
		t.Fatal(err)
	}
	insert := func(i int) {
		key := fmt.Sprintf("zq%dx%d", rows, i)
		if _, err := eng.Apply(context.Background(), []Mutation{{
			Op: OpInsert, Table: "actor", Values: []string{"bench-" + key, key + " Benchmark"},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		insert(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 200; i < 200+n; i++ {
		insert(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestApplyCostIndependentOfSize: one Apply allocates in proportion to
// its batch, not to the table or the vocabulary it lands in. A one-row
// insert at 200k rows may cost at most twice what it costs at 10k (the
// chunk-pointer spines still grow with the table, by 8 bytes per 256
// rows), and at most 64 KiB at the benchmark's 50k rows.
func TestApplyCostIndependentOfSize(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 200k-row engine")
	}
	start := time.Now()
	cost := map[int]float64{}
	for _, rows := range []int{10_000, 50_000, 200_000} {
		b, a := insertCost(t, rows, 1000)
		cost[rows] = b
		t.Logf("%7d rows: %8.0f B/insert, %6.1f allocs/insert", rows, b, a)
	}
	if r := cost[200_000] / cost[10_000]; r > 2 {
		t.Errorf("bytes per insert grow %.2fx from 10k to 200k rows, want <= 2x", r)
	}
	if b := cost[50_000]; b > 64<<10 {
		t.Errorf("bytes per insert at 50k rows = %.0f, want <= %d", b, 64<<10)
	}
	t.Logf("took %v", time.Since(start).Round(time.Millisecond))
}
