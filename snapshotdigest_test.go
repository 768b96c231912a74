package keysearch

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"testing"

	"repro/internal/datagen"
	"repro/internal/durable"
)

// parentSnapshotDigest is the SHA-256 of the snapshot digestEngine saves,
// recorded from the last build whose snapshots could carry a data-graph
// section, for an engine that never built one. Every section it wrote
// then is written with the same bytes now. The in-memory layout may
// change; the encoding may not.
const parentSnapshotDigest = "c262566483ac5173950a6feb69325f0b0496ea480981a34afc0f958b61b9cd6c"

// legacySnapshot is churnedEngine's snapshot as saved by a build that
// still persisted the data-based baseline's tuple graph, after one
// baseline search had materialised it: it carries one section that no
// current build writes or reads.
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
// tuple-graph section opens (the section is CRC-checked and then
// ignored), answers exactly like a fresh engine over the same rows, and
// re-saves to that fresh engine's bytes, dropping the section.
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
	// The fixture must really hold a section the fresh engine does not
	// write, or this test proves nothing about skipping one.
	fixture, current := sectionNames(t, raw), sectionNames(t, want.Bytes())
	if len(fixture) != len(current)+1 {
		t.Fatalf("fixture sections %v, fresh engine's %v: want exactly one retired section", fixture, current)
	}
}

// sectionNames lists a snapshot container's section names in order.
func sectionNames(t *testing.T, snap []byte) []string {
	t.Helper()
	sr, err := durable.NewSnapshotReader(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for {
		name, _, err := sr.Next()
		if err == io.EOF {
			return names
		}
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
}
