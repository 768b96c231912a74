//go:build race

package keysearch

// The allocation ceilings of a run under -race, where sync.Pool drops a
// quarter of its puts, so pooled scratch is allocated afresh and the
// readings vary from run to run. ceilings_test.go holds the ceilings
// without -race and names what each bounds. Over 14 -race runs at
// GOMAXPROCS 2 the readings reached 23, 34 and 48 (interpretation
// stages), 30 (BenchmarkAPISearch), 47 (Search of kw=2 at K=10), 11 582
// bytes (Search of kw=3 at K=10), 54 (the construction dialogue), and
// 623.2 allocations and 128 561 bytes (BenchmarkRows).
var interpretAllocCeilings = [3]float64{24, 37, 50}

const (
	searchAllocCeiling     = 31
	searchK10AllocCeiling  = 49
	searchWideBytesCeiling = 12_200
	constructAllocCeiling  = 56
	rowsAllocCeiling       = 630
	rowsBytesCeiling       = 133_000
)
