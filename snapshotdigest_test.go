package keysearch

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/datagen"
)

// parentSnapshotDigest is the SHA-256 of the snapshot digestEngine saves,
// recorded from the build before the table rows, the inverted index and
// its term dictionary moved to chunked copy-on-write storage. The
// in-memory layout may change; the encoding may not.
const parentSnapshotDigest = "14dd75b43f48ecf0bb78584a47eeafcebcdf35015ca0f34c5310ed0d9fda4f1c"

// digestEngine is a movies engine whose movie and actor tables span
// several row chunks, churned by batches that update, delete and insert
// at both ends of those tables, with the data graph materialised.
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
	if _, err := eng.SearchTrees(bg, "digest redux", 2); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestSnapshotDigestMatchesParent: the churned engine saves exactly the
// bytes the pre-chunking build saved, and those bytes decode and
// re-encode unchanged.
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
