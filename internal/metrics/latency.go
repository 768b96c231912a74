package metrics

import (
	"fmt"
	"math/bits"
	"time"
)

// LatencyHistogram is an HDR-style log-linear histogram of non-negative
// durations (nanoseconds). Values up to 2^(subBits+1) are counted
// exactly; beyond that, every power-of-two range is subdivided into
// 2^subBits linear sub-buckets, bounding the relative quantisation error
// of any recorded value by 2^-subBits (≈1.6% at subBits = 6) while
// keeping the bucket array a few KB regardless of range. This is the
// recording structure of the load generator: cheap constant-time
// Record, percentile queries over the full dynamic range (microsecond
// hits to multi-second stalls in one histogram), and lossless Merge so
// each worker records into a private histogram and the runner combines
// them afterwards.
//
// A LatencyHistogram is NOT safe for concurrent use — that is the
// point: workers own one each, so the hot path takes no locks.
type LatencyHistogram struct {
	counts []int64
	total  int64
	sum    int64
	min    int64 // valid when total > 0
	max    int64
}

// subBits fixes the per-octave resolution: 2^subBits linear sub-buckets
// per power of two, i.e. ≤ 1/64 ≈ 1.6% relative error.
const subBits = 6

const (
	subCount    = 1 << subBits       // sub-buckets per octave
	linearLimit = 1 << (subBits + 1) // values below are counted exactly
)

// NewLatencyHistogram returns an empty histogram.
func NewLatencyHistogram() *LatencyHistogram {
	// Indexes: [0, linearLimit) exact, then subCount per further octave
	// up to 63-bit values.
	n := linearLimit + (63-subBits)*subCount
	return &LatencyHistogram{counts: make([]int64, n)}
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < linearLimit {
		return int(u)
	}
	msb := bits.Len64(u) - 1     // ≥ subBits+1
	shift := uint(msb - subBits) // ≥ 1
	top := u >> shift            // in [subCount, 2*subCount)
	return linearLimit + int(shift-1)*subCount + int(top-subCount)
}

// bucketMid returns the representative value of a bucket (its midpoint),
// used when reading percentiles back out.
func bucketMid(idx int) int64 {
	if idx < linearLimit {
		return int64(idx)
	}
	rest := idx - linearLimit
	shift := uint(rest/subCount) + 1
	sub := uint64(rest%subCount) + subCount
	lower := sub << shift
	width := int64(1) << shift
	return int64(lower) + width/2
}

// Record adds one observation.
func (h *LatencyHistogram) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.sum += v
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.total++
}

// Merge folds other into h (other is unchanged).
func (h *LatencyHistogram) Merge(other *LatencyHistogram) {
	if other == nil || other.total == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.total == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.total += other.total
	h.sum += other.sum
}

// Count returns the number of recorded observations.
func (h *LatencyHistogram) Count() int64 { return h.total }

// Min and Max return the exact extreme observations (0 when empty).
func (h *LatencyHistogram) Min() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.min)
}

// Max returns the exact largest observation (0 when empty).
func (h *LatencyHistogram) Max() time.Duration { return time.Duration(h.max) }

// Mean returns the exact arithmetic mean (0 when empty).
func (h *LatencyHistogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.sum / h.total)
}

// Quantile returns the value at quantile q in [0, 1]: the smallest
// bucket such that at least q·Count observations are ≤ its upper edge,
// reported as the bucket midpoint (clamped to the exact min/max so
// Quantile(0) and Quantile(1) are exact).
func (h *LatencyHistogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return time.Duration(h.min)
	}
	if q >= 1 {
		return time.Duration(h.max)
	}
	rank := int64(q*float64(h.total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := bucketMid(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max)
}

// String renders the standard latency summary line.
func (h *LatencyHistogram) String() string {
	return fmt.Sprintf("n=%d p50=%v p95=%v p99=%v max=%v",
		h.total, h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max())
}
