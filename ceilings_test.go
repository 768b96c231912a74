//go:build !race

package keysearch

// The allocation ceilings of a run without -race, where the readings
// repeat exactly; ceilings_race_test.go holds the -race ones.
//
// interpretAllocCeilings bound the interpretation stages of
// BenchmarkInterpret's kw=1, 2 and 3 requests, which measure 20, 31 and
// 43 allocations. searchAllocCeiling bounds BenchmarkAPISearch's request
// (one keyword, K=5), which measures 26, and searchK10AllocCeiling a
// Search of the kw=2 query at K=10, the shape the serving benchmark's
// search.interp sends (19 interpretations, 10 returned), which measures
// 42. searchWideBytesCeiling bounds the bytes of a K=10 Search of the
// kw=3 query (81 interpretations), which measures 10 049; it measured
// 29 926 while Search materialised and sorted the whole space.
// constructAllocCeiling bounds BenchmarkAPIConstructSession's whole
// dialogue, which measures 51. rowsAllocCeiling and rowsBytesCeiling
// bound one BenchmarkRows request, averaged over a warm pass of the mix,
// which measures 570.0 allocations and 88 789 bytes. Each allocation
// ceiling sits 2 above its reading, and each bytes ceiling about 5 %
// above, over 14 runs at GOMAXPROCS 2.
var interpretAllocCeilings = [3]float64{22, 33, 45}

const (
	searchAllocCeiling     = 28
	searchK10AllocCeiling  = 44
	searchWideBytesCeiling = 10_550
	constructAllocCeiling  = 53
	rowsAllocCeiling       = 573
	rowsBytesCeiling       = 93_500
)
