package keysearch

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/durable"
)

// parentSnapshotDigest is the SHA-256 of the snapshot digestEngine saves:
// the snapshot the last build to write an invindex section saved
// (c262566483ac5173950a6feb69325f0b0496ea480981a34afc0f958b61b9cd6c)
// with that section taken out. Every section a current build writes was
// written then with the same bytes. The in-memory layout may change; the
// encoding may not.
const parentSnapshotDigest = "8a59dfb062866f1f21e8c0a009f26192b46ee37aaac14173c67faa2f38533e29"

// legacySnapshot is churnedEngine's snapshot as saved by a build that
// still persisted the data-based baseline's tuple graph, after one
// baseline search had materialised it, and the inverted index: it
// carries two sections that no current build writes or reads.
const legacySnapshot = "testdata/legacy-snapshot.ksnap"

// digestEngine is a movies engine whose movie and actor tables span
// several row chunks, churned by batches that update, delete and insert
// at both ends of those tables.
func digestEngine(t *testing.T) *Engine {
	t.Helper()
	db, err := datagen.IMDB(datagen.IMDBConfig{Movies: 800, Actors: 600, Directors: 80, Companies: 40, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewFromDatabase(db, WithMaxJoinPath(4), WithMutations())
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 4; b++ {
		muts := []Mutation{
			{Op: OpUpdate, Table: "movie", Key: fmt.Sprintf("m%d", b), Values: []string{fmt.Sprintf("m%d", b), fmt.Sprintf("Digest Redux %d", b), "2024"}},
			{Op: OpUpdate, Table: "movie", Key: fmt.Sprintf("m%d", 799-b), Values: []string{fmt.Sprintf("m%d", 799-b), "Zyzzyva Returns", "1999"}},
			{Op: OpDelete, Table: "actor", Key: fmt.Sprintf("a%d", 3+b)},
			{Op: OpDelete, Table: "actor", Key: fmt.Sprintf("a%d", 590-b)},
		}
		for i := 0; i < 60; i++ {
			key := fmt.Sprintf("dg%dx%d", b, i)
			muts = append(muts, Mutation{Op: OpInsert, Table: "actor", Values: []string{key, key + " Digestson"}})
		}
		if _, err := eng.Apply(bg, muts); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// TestSnapshotDigestMatchesParent: the churned engine saves exactly the
// bytes the recorded build saved, and those bytes decode and re-encode
// unchanged.
func TestSnapshotDigestMatchesParent(t *testing.T) {
	var buf bytes.Buffer
	if err := digestEngine(t).SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != parentSnapshotDigest {
		t.Fatalf("snapshot digest %s, recorded from the parent build %s", got, parentSnapshotDigest)
	}
	reopened, err := OpenSnapshot(bytes.NewReader(buf.Bytes()), WithMutations())
	if err != nil {
		t.Fatal(err)
	}
	var resaved bytes.Buffer
	if err := reopened.SaveSnapshot(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), resaved.Bytes()) {
		t.Fatal("decode → re-encode changed the snapshot bytes")
	}
}

// TestOpenLegacySnapshot: a snapshot that still carries the retired
// tuple-graph and inverted-index sections opens (each is CRC-checked
// and then ignored), answers exactly like a fresh engine over the same
// rows, and re-saves to that fresh engine's bytes, dropping both.
func TestOpenLegacySnapshot(t *testing.T) {
	raw, err := os.ReadFile(legacySnapshot)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := OpenSnapshot(bytes.NewReader(raw), WithMutations())
	if err != nil {
		t.Fatal(err)
	}
	fresh := churnedEngine(t)
	compareEngines(t, legacy, fresh, durQueries)

	var resaved, want bytes.Buffer
	if err := legacy.SaveSnapshot(&resaved); err != nil {
		t.Fatal(err)
	}
	if err := fresh.SaveSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), want.Bytes()) {
		t.Fatalf("legacy snapshot re-saved to %d bytes, want a fresh engine's %d", resaved.Len(), want.Len())
	}
	// The fixture must really hold the sections the fresh engine does not
	// write, or this test proves nothing about skipping them.
	fixture, current := sectionNames(t, raw), sectionNames(t, want.Bytes())
	slices.Sort(fixture)
	if wantNames := slices.Sorted(slices.Values(append(current, "datagraph", "invindex"))); !slices.Equal(fixture, wantNames) {
		t.Fatalf("fixture sections %v, want the fresh engine's %v plus datagraph and invindex", fixture, current)
	}
}

// TestOpenSkipsRetiredSections: a current snapshot with a template-usage
// section and an inverted-index section added (the latter a payload no
// decoder could read) opens, ignores both, answers like the engine that
// saved it, and re-saves to that engine's bytes.
func TestOpenSkipsRetiredSections(t *testing.T) {
	fresh := churnedEngine(t)
	var want bytes.Buffer
	if err := fresh.SaveSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	var usage durable.Enc
	usage.Uvarint(uint64(fresh.NumTemplates()))
	for id := 0; id < fresh.NumTemplates(); id++ {
		usage.Int(id)
		usage.Int(1000 * id)
	}
	secs := append(readSections(t, want.Bytes()),
		section{"invindex", []byte("no current decoder reads this")},
		section{"usage", usage.Bytes()})
	raw, ok := writeSections(secs)
	if !ok {
		t.Fatal("could not write the sections")
	}
	got, err := OpenSnapshot(bytes.NewReader(raw), WithMutations())
	if err != nil {
		t.Fatal(err)
	}
	compareEngines(t, got, fresh, durQueries)
	var resaved bytes.Buffer
	if err := got.SaveSnapshot(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), want.Bytes()) {
		t.Fatal("a snapshot with retired sections re-saved to other bytes than the engine that saved it")
	}
}

// sectionNames lists a snapshot container's section names in order.
func sectionNames(t *testing.T, snap []byte) []string {
	t.Helper()
	var names []string
	for _, s := range readSections(t, snap) {
		names = append(names, s.name)
	}
	return names
}
