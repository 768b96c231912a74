package keysearch

import (
	"bytes"
	"io"
	"os"
	"runtime"
	"testing"

	"repro/internal/durable"
)

// section is one named payload of a snapshot container.
type section struct {
	name    string
	payload []byte
}

// readSections lists a snapshot container's sections in order.
func readSections(tb testing.TB, snap []byte) []section {
	tb.Helper()
	sr, err := durable.NewSnapshotReader(bytes.NewReader(snap))
	if err != nil {
		tb.Fatal(err)
	}
	var out []section
	for {
		name, payload, err := sr.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, section{name, payload})
	}
}

// writeSections writes the sections as a container, each with its
// CRC-32C, or reports false for a name the container cannot hold.
func writeSections(secs []section) ([]byte, bool) {
	var out bytes.Buffer
	sw, err := durable.NewSnapshotWriter(&out)
	if err != nil {
		return nil, false
	}
	for _, s := range secs {
		if sw.Section(s.name, s.payload) != nil {
			return nil, false
		}
	}
	if sw.Close() != nil {
		return nil, false
	}
	return out.Bytes(), true
}

// encodeSectionList is FuzzOpenSnapshot's input form of a container:
// the section count, then each section's name and payload.
func encodeSectionList(secs []section) []byte {
	var e durable.Enc
	e.Uvarint(uint64(len(secs)))
	for _, s := range secs {
		e.String(s.name)
		e.String(string(s.payload))
	}
	return e.Bytes()
}

// decodeSectionList inverts encodeSectionList, reporting false when the
// bytes are not such a list.
func decodeSectionList(list []byte) ([]section, bool) {
	d := durable.NewDec(list)
	n := int(d.Uvarint())
	var secs []section
	for i := 0; i < n && d.Err() == nil; i++ {
		secs = append(secs, section{d.String(), []byte(d.String())})
	}
	return secs, d.Err() == nil
}

// forgedQCachePayloads are answer-cache sections whose entry counts
// claim far more rows and footprint attributes than their bytes hold
// (the payloads of qcache's TestDecodeRejectsForgedCounts).
func forgedQCachePayloads() [][]byte {
	const persistVersion, kindSelection, kindPlan = 2, 's', 'p'
	var rows durable.Enc
	rows.Byte(persistVersion)
	rows.Uvarint(1)
	rows.Byte(kindPlan)
	rows.String("")
	rows.Uvarint(0)
	rows.Uvarint(1 << 62)
	var fp durable.Enc
	fp.Byte(persistVersion)
	fp.Uvarint(1)
	fp.Byte(kindSelection)
	fp.String("")
	fp.Uvarint(5_000_000)
	return [][]byte{rows.Bytes(), fp.Bytes()}
}

// openSnapshotSeeds returns the real containers FuzzOpenSnapshot starts
// from: the legacy fixture, a churned engine's checkpoint with a warm
// answer cache, that checkpoint with each forged answer-cache section in
// place of its own, and that checkpoint with a join-path bound of 20 in
// its meta.
func openSnapshotSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	legacy, err := os.ReadFile(legacySnapshot)
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	eng := churnedEngine(tb, WithAnswerCache(1<<20), WithDurability(dir))
	for _, q := range durQueries {
		if _, err := eng.SearchRows(bg, RowsRequest{Query: q, K: 5}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		tb.Fatal(err)
	}
	churned, err := os.ReadFile(dir + "/" + snapshotFileName)
	if err != nil {
		tb.Fatal(err)
	}
	seeds := [][]byte{legacy, churned}
	secs := readSections(tb, churned)
	if secs[len(secs)-1].name != sectionQCache {
		tb.Fatalf("churned checkpoint sections %v: want a warm answer cache last", secs)
	}
	for _, p := range forgedQCachePayloads() {
		secs[len(secs)-1].payload = p
		forged, _ := writeSections(secs)
		seeds = append(seeds, forged)
	}
	return append(seeds, withJoinPath(tb, churned, 20))
}

// openAllocFactor bounds the bytes OpenSnapshot may allocate per byte
// of a seed container.
const openAllocFactor = 512

// FuzzOpenSnapshot feeds OpenSnapshot containers whose section names and
// payloads are arbitrary but whose framing and checksums are valid, so
// every mutation reaches a section decoder rather than stopping at a
// CRC. The fuzzed input is a section list (encodeSectionList); the
// seeds are real snapshots. On every input OpenSnapshot must return an
// error or an engine that answers durQueries and re-saves to a snapshot
// that opens, and never panic. On the seeds it must also allocate at
// most openAllocFactor bytes per input byte.
func FuzzOpenSnapshot(f *testing.F) {
	for _, snap := range openSnapshotSeeds(f) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		OpenSnapshot(bytes.NewReader(snap), WithAnswerCache(1<<20))
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; b > uint64(openAllocFactor*len(snap)) {
			f.Fatalf("opening a %d-byte seed allocated %d bytes", len(snap), b)
		}
		f.Add(encodeSectionList(readSections(f, snap)))
	}
	f.Fuzz(func(t *testing.T, list []byte) {
		secs, ok := decodeSectionList(list)
		if !ok {
			return
		}
		snap, ok := writeSections(secs)
		if !ok {
			return
		}
		eng, err := OpenSnapshot(bytes.NewReader(snap), WithAnswerCache(1<<20))
		if err != nil {
			return
		}
		// A forged database need not hold the queries' keywords, so a
		// query error is an answer; a panic is not.
		for _, q := range durQueries {
			eng.Search(bg, SearchRequest{Query: q, K: 5, RowLimit: 3})
			eng.SearchRows(bg, RowsRequest{Query: q, K: 5})
			eng.Diversify(bg, DiversifyRequest{Query: q, K: 4, Lambda: 0.5})
		}
		// Whatever opens re-saves to a snapshot that opens again.
		var resaved bytes.Buffer
		if err := eng.SaveSnapshot(&resaved); err != nil {
			t.Fatalf("re-save: %v", err)
		}
		if _, err := OpenSnapshot(&resaved); err != nil {
			t.Fatalf("re-saved snapshot does not open: %v", err)
		}
	})
}
