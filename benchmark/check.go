package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	keysearch "repro"
	"repro/internal/relstore"
)

// frozenPath holds the digests that pin the benchmark's inputs and the
// engine's answers. BENCHMARK.json's schema is fixed by the driver's
// contract, so they live beside the code instead.
const frozenPath = "benchmark/frozen.json"

// frozenSeed is the seed whose op lists are pinned. Seed 43 is held out:
// use it, not 42, when a change claims a gain.
const frozenSeed = 42

// frozen is the content of frozen.json, written by -freeze.
type frozen struct {
	DatasetRows   int               `json:"dataset_rows"`
	DatasetSHA256 string            `json:"dataset_sha256"`
	CanarySHA256  string            `json:"canary_sha256"`
	OpsSeed       int64             `json:"ops_seed"`
	OpsSHA256     map[string]string `json:"ops_sha256"`
}

func loadFrozen() (*frozen, error) {
	raw, err := os.ReadFile(frozenPath)
	if err != nil {
		return nil, err
	}
	var f frozen
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", frozenPath, err)
	}
	return &f, nil
}

// The canary is a fixed request list, independent of --seed, sent one at
// a time to an engine no timed request touches. The digest of its
// response bodies is committed, so an answer that changes with the code
// fails the run instead of moving a number.
const (
	canarySeed      = 20090824
	canarySearches  = 16
	canaryRows      = 24
	canaryDiversify = 8
)

func canaryOps(db *relstore.Database) []op {
	qs := sampleQueries(db, canarySearches+canaryRows+canaryDiversify, canarySeed)
	ops := make([]op, len(qs))
	for i, q := range qs {
		switch {
		case i < canarySearches:
			ops[i] = searchOp(q, -1)
		case i < canarySearches+canaryRows:
			ops[i] = rowsOp(q, -1)
		default:
			ops[i] = diversifyOp(q, -1)
		}
	}
	return ops
}

// runCanary sends the canary list and returns the digest of the
// responses. Each response is also checked for shape: it echoes the
// query, holds at most topK entries, and is ranked in descending order.
func runCanary(sys *system) (string, error) {
	c := newClient(sys.url)
	defer c.close()
	h := sha256.New()
	for i, o := range canaryOps(sys.db) {
		body, err := c.do(o)
		if err != nil {
			return "", fmt.Errorf("canary op %d: %w", i, err)
		}
		if err := checkShape(o, body); err != nil {
			return "", fmt.Errorf("canary op %d: %w", i, err)
		}
		io.WriteString(h, kindPaths[o.kind])
		h.Write(body)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func checkShape(o op, body []byte) error {
	var req struct {
		Query string `json:"query"`
	}
	if err := json.Unmarshal(o.body, &req); err != nil {
		return err
	}
	if o.kind == opRows {
		var resp keysearch.RowsResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if resp.Query != req.Query || len(resp.Rows) > topK {
			return fmt.Errorf("rows response for %q: query %q, %d rows", req.Query, resp.Query, len(resp.Rows))
		}
		for i := 1; i < len(resp.Rows); i++ {
			if resp.Rows[i].Score > resp.Rows[i-1].Score {
				return fmt.Errorf("rows response for %q is not ranked", req.Query)
			}
		}
		return nil
	}
	var resp keysearch.SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	// A diversified list may be empty: every interpretation can join to
	// no rows. A search always has at least one interpretation.
	if resp.Query != req.Query || len(resp.Results) > topK || (o.kind == opSearch && len(resp.Results) == 0) {
		return fmt.Errorf("response for %q: query %q, %d results", req.Query, resp.Query, len(resp.Results))
	}
	if o.kind == opSearch { // a diversified list trades rank for novelty
		for i := 1; i < len(resp.Results); i++ {
			if resp.Results[i].Probability > resp.Results[i-1].Probability {
				return fmt.Errorf("search response for %q is not ranked", req.Query)
			}
		}
	}
	return nil
}

// copyFile copies src to dst.
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// durabilityKeys is how many acknowledged keys the recovery check looks up.
const durabilityKeys = 32

// checkDurability recovers a second engine from a copy of the state
// directory taken while the first is still open, as a crash would leave
// it: no final checkpoint, the tail of the batches only in the WAL. The
// recovered epoch must equal the number of acknowledged batches and a
// sample of acknowledged keys must be found by keyword.
//
// The WAL is copied before the snapshot. A background checkpoint renames
// the new snapshot into place before it truncates the WAL, so whichever
// WAL this reads, the snapshot read after it is at least as new and
// recovery skips the records it already holds.
func checkDurability(sys *system, ackedKeys []string) error {
	dir := sys.dir + "-recovered"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, name := range []string{"wal.log", "snapshot.ksnap"} {
		if err := copyFile(filepath.Join(dir, name), filepath.Join(sys.dir, name)); err != nil {
			return err
		}
	}
	rec, err := keysearch.Open(dir, engineOptions(dir)...)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	defer rec.Close()
	if got, want := rec.Epoch(), uint64(len(ackedKeys)); got != want {
		return fmt.Errorf("recovered epoch %d, acknowledged batches %d", got, want)
	}
	step := max(1, len(ackedKeys)/durabilityKeys)
	for i := 0; i < len(ackedKeys); i += step {
		resp, err := rec.Search(context.Background(), keysearch.SearchRequest{Query: ackedKeys[i], K: 1})
		if err != nil || len(resp.Results) == 0 {
			return fmt.Errorf("acknowledged key %q not found after recovery: %v", ackedKeys[i], err)
		}
	}
	return nil
}
