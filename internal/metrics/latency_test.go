package metrics

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestLatencyHistogramExactSmallValues(t *testing.T) {
	h := NewLatencyHistogram()
	for v := 0; v < linearLimit; v++ {
		h.Record(time.Duration(v))
	}
	if h.Count() != linearLimit {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 0 || h.Max() != linearLimit-1 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	// Every small value lands in its own bucket.
	for v := 0; v < linearLimit; v++ {
		if h.counts[v] != 1 {
			t.Fatalf("bucket %d count = %d", v, h.counts[v])
		}
	}
}

func TestLatencyHistogramRelativeError(t *testing.T) {
	// Any recorded value must be reproducible from its bucket midpoint
	// within the 1/64 relative-error bound.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		v := rng.Int63n(int64(10 * time.Minute))
		mid := bucketMid(bucketOf(v))
		diff := v - mid
		if diff < 0 {
			diff = -diff
		}
		if v >= linearLimit && float64(diff) > float64(v)/float64(subCount) {
			t.Fatalf("value %d quantised to %d (error %d > %d)", v, mid, diff, v/subCount)
		}
		if v < linearLimit && mid != v {
			t.Fatalf("small value %d quantised to %d", v, mid)
		}
	}
}

func TestLatencyHistogramQuantiles(t *testing.T) {
	h := NewLatencyHistogram()
	// Uniform 1..1000 ms: quantiles must land within ~2% of the exact
	// order statistics.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	checks := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Millisecond},
		{0.95, 950 * time.Millisecond},
		{0.99, 990 * time.Millisecond},
	}
	for _, c := range checks {
		got := h.Quantile(c.q)
		lo := time.Duration(float64(c.want) * 0.97)
		hi := time.Duration(float64(c.want) * 1.03)
		if got < lo || got > hi {
			t.Fatalf("Quantile(%v) = %v, want within [%v, %v]", c.q, got, lo, hi)
		}
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Fatalf("extreme quantiles not exact: %v/%v vs %v/%v",
			h.Quantile(0), h.Quantile(1), h.Min(), h.Max())
	}
	if h.Mean() != 500*time.Millisecond+500*time.Microsecond {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestLatencyHistogramMergeEquivalence(t *testing.T) {
	// Recording into N histograms and merging must equal recording
	// everything into one (the per-worker pattern of the load runner).
	rng := rand.New(rand.NewSource(7))
	whole := NewLatencyHistogram()
	parts := make([]*LatencyHistogram, 4)
	for i := range parts {
		parts[i] = NewLatencyHistogram()
	}
	for i := 0; i < 20000; i++ {
		v := time.Duration(rng.Int63n(int64(3 * time.Second)))
		whole.Record(v)
		parts[i%len(parts)].Record(v)
	}
	merged := NewLatencyHistogram()
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.Count() != whole.Count() || merged.Min() != whole.Min() ||
		merged.Max() != whole.Max() || merged.Mean() != whole.Mean() {
		t.Fatalf("merge summary diverged: %v vs %v", merged, whole)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.99, 0.999} {
		if merged.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("Quantile(%v): merged %v != whole %v", q, merged.Quantile(q), whole.Quantile(q))
		}
	}
}

func TestConcurrentRecordMerge(t *testing.T) {
	const workers, perWorker = 8, 5000
	done := make(chan *LatencyHistogram, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			h := NewLatencyHistogram()
			for i := 0; i < perWorker; i++ {
				h.Record(time.Duration(rng.Int63n(int64(2 * time.Second))))
			}
			done <- h
		}(int64(w + 1))
	}
	// Merge concurrently with recording: each histogram arrives only
	// after its owner finished, so the channel is the synchronisation
	// point the race detector checks.
	merged := NewLatencyHistogram()
	mergedAll := make(chan struct{})
	go func() {
		defer close(mergedAll)
		for i := 0; i < workers; i++ {
			merged.Merge(<-done)
		}
	}()
	wg.Wait()
	<-mergedAll
	if merged.Count() != workers*perWorker {
		t.Fatalf("count = %d, want %d", merged.Count(), workers*perWorker)
	}
	if merged.Quantile(0.5) <= 0 || merged.Max() <= merged.Min() {
		t.Fatalf("merged summary degenerate: %v", merged)
	}
}

func TestServingStatsHighWaterAndCounters(t *testing.T) {
	var s ServingStats
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				s.StartQueued()
				s.StartRequest()
				s.EndQueued()
				s.EndRequest()
			}
			s.ShedQueueFull()
			s.ShedQueueTimeout()
			s.DeadlineExceeded()
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.InFlight != 0 || snap.Queued != 0 {
		t.Fatalf("gauges not drained: %+v", snap)
	}
	if snap.Served != 8000 {
		t.Fatalf("served = %d", snap.Served)
	}
	if snap.MaxInFlight < 1 || snap.MaxInFlight > 8 || snap.MaxQueued < 1 || snap.MaxQueued > 8 {
		t.Fatalf("high-water marks out of range: %+v", snap)
	}
	if snap.ShedQueueFull != 8 || snap.ShedQueueTimeout != 8 || snap.DeadlineExceeded != 8 {
		t.Fatalf("shed counters wrong: %+v", snap)
	}
}
