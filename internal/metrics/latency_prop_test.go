package metrics

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// randDuration draws from a heavy-tailed mix so the property tests
// cover the exact linear range, mid octaves, and multi-second stalls.
func randDuration(rng *rand.Rand) time.Duration {
	switch rng.Intn(4) {
	case 0:
		return time.Duration(rng.Int63n(linearLimit)) // exact buckets
	case 1:
		return time.Duration(rng.Int63n(int64(time.Millisecond)))
	case 2:
		return time.Duration(rng.Int63n(int64(time.Second)))
	default:
		return time.Duration(rng.Int63n(int64(30 * time.Second)))
	}
}

// TestMergeIsValueIdenticalToSingleHistogram is the per-worker
// recording property the load harness relies on: N workers recording
// into private histograms and merging afterwards must be
// indistinguishable — bucket by bucket, not just at quantiles — from
// one histogram that saw every sample.
func TestMergeIsValueIdenticalToSingleHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		workers := 1 + rng.Intn(8)
		perWorker := make([]*LatencyHistogram, workers)
		single := NewLatencyHistogram()
		for w := range perWorker {
			perWorker[w] = NewLatencyHistogram()
			for i, n := 0, rng.Intn(400); i < n; i++ {
				d := randDuration(rng)
				perWorker[w].Record(d)
				single.Record(d)
			}
		}
		merged := NewLatencyHistogram()
		for _, h := range perWorker {
			merged.Merge(h)
		}
		if !reflect.DeepEqual(merged, single) {
			t.Fatalf("trial %d (%d workers): merged histogram differs from single-recorder\nmerged: total %d sum %d min %d max %d\nsingle: total %d sum %d min %d max %d",
				trial, workers,
				merged.total, merged.sum, merged.min, merged.max,
				single.total, single.sum, single.min, single.max)
		}
		// The quantile surface must agree too (it reads the same
		// buckets, but this pins the exported view).
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
			if merged.Quantile(q) != single.Quantile(q) {
				t.Fatalf("trial %d: Quantile(%v) diverged: %v vs %v",
					trial, q, merged.Quantile(q), single.Quantile(q))
			}
		}
	}
}

// TestMergeEmptyAndNil: merging nil or an empty histogram is a no-op
// and must not disturb min/max.
func TestMergeEmptyAndNil(t *testing.T) {
	h := NewLatencyHistogram()
	h.Record(5 * time.Millisecond)
	before := *h
	h.Merge(nil)
	h.Merge(NewLatencyHistogram())
	if !reflect.DeepEqual(*h, before) {
		t.Fatal("merging nil/empty histograms changed the receiver")
	}
}
