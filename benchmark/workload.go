package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	keysearch "repro"
	"repro/httpapi"
	"repro/internal/datagen"
	"repro/internal/relstore"
)

// opKind is one request class. A construct op is a whole dialogue.
type opKind uint8

const (
	opSearch opKind = iota
	opRows
	opDiversify
	opConstruct
	opMutate
	numKinds
)

var (
	kindNames = [numKinds]string{"search", "rows", "diversify", "construct", "mutate"}
	kindPaths = [numKinds]string{"/v1/search", "/v1/rows", "/v1/diversify", "/v1/construct", "/v1/mutate"}
)

// op is one pre-generated request.
type op struct {
	kind opKind
	body []byte
	// slot groups requests whose responses must be byte-identical (the
	// same body against unchanged data); -1 when the op never repeats or
	// the data changes underneath it.
	slot int
	// key is, for a mutate op, the unique name token of the inserted
	// row: the durability check searches for it after recovery.
	key string
}

// Request parameters shared by every workload.
const (
	topK         = 10
	lambda       = 0.5
	hotSetSize   = 256
	hotSetSeed   = 1971
	zipfExponent = 1.1
	zipfOffset   = 32
	readPoolSize = 2048
)

// Op-list sizes. A list that may not repeat (rows.fresh is only fresh
// once; mixed.write's keys are unique) is generated several times longer
// than this host consumes in a run, and a run that still exhausts it ends
// early and says so. The other lists are cycled.
const (
	searchPool     = 20_000             // distinct queries of search.interp, cycled
	searchWarmup   = 2_000              // untimed requests before search.interp
	freshPerSecond = 600                // rows.fresh ops generated per run second
	zipfWarmup     = 3 * 2 * hotSetSize // untimed requests before rows.zipf
	zipfDraws      = 50_000             // Zipf draws of rows.zipf, cycled
	mixedPerSecond = 6_000              // mixed.write ops generated per run second
)

// workload describes one traffic mix. Names are stable identifiers.
type workload struct {
	name string
	// primary is the op kind the primary_p50_ms / primary_p95_ms
	// end-to-end metrics are taken from.
	primary opKind
	// readOnly workloads leave the data unchanged, so identical requests
	// must get identical bytes and the canary digest applies.
	readOnly bool
	cycle    bool
	warmup   int
	build    func(db *relstore.Database, seed int64, seconds float64) []op
}

var workloads = []workload{
	{name: "search.interp", primary: opSearch, readOnly: true, cycle: true, warmup: searchWarmup, build: buildSearchInterp},
	{name: "rows.fresh", primary: opRows, readOnly: true, build: buildRowsFresh},
	{name: "rows.zipf", primary: opRows, readOnly: true, cycle: true, warmup: zipfWarmup, build: buildRowsZipf},
	{name: "mixed.write", primary: opMutate, build: buildMixedWrite},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sampleQueries draws n keyword queries with internal/datagen's movie
// intents at the thesis's half single-concept, half multi-concept split.
func sampleQueries(db *relstore.Database, n int, seed int64) []string {
	intents := datagen.MovieWorkload(db, datagen.WorkloadConfig{
		Queries: n, Seed: seed, MultiConceptFraction: 0.5,
	})
	out := make([]string, len(intents))
	for i, in := range intents {
		out[i] = strings.Join(in.Keywords, " ")
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request DTOs always marshal
	}
	return b
}

func searchOp(q string, slot int) op {
	return op{kind: opSearch, slot: slot, body: mustJSON(keysearch.SearchRequest{Query: q, K: topK})}
}

func rowsOp(q string, slot int) op {
	return op{kind: opRows, slot: slot, body: mustJSON(keysearch.RowsRequest{Query: q, K: topK})}
}

func diversifyOp(q string, slot int) op {
	return op{kind: opDiversify, slot: slot, body: mustJSON(keysearch.DiversifyRequest{Query: q, K: topK, Lambda: lambda})}
}

func constructOp(q string) op {
	return op{kind: opConstruct, slot: -1, body: mustJSON(httpapi.ConstructStepRequest{
		Action: "start", Start: &keysearch.ConstructRequest{Query: q},
	})}
}

// mutateOp inserts one actor whose key and name token are unique to
// (seed, i), so no batch can collide and every acknowledged row can be
// looked up by keyword afterwards.
func mutateOp(seed int64, i int) op {
	key := fmt.Sprintf("zq%dx%d", seed, i)
	return op{kind: opMutate, slot: -1, key: key, body: mustJSON(httpapi.MutateRequest{
		Mutations: []keysearch.Mutation{{
			Op: keysearch.OpInsert, Table: "actor",
			Values: []string{"bench-" + key, key + " Benchmark"},
		}},
	})}
}

// buildSearchInterp: interpretation only. httpapi decode/encode,
// internal/query and internal/prob do all the work; no plan executes.
func buildSearchInterp(db *relstore.Database, seed int64, _ float64) []op {
	qs := sampleQueries(db, searchPool, seed)
	ops := make([]op, len(qs))
	for i, q := range qs {
		ops[i] = searchOp(q, i)
	}
	return ops
}

// buildRowsFresh: three /v1/rows to one /v1/diversify, every query
// sampled once, so the answer cache never sees a request twice and
// topk, relstore and divq do the work.
func buildRowsFresh(db *relstore.Database, seed int64, seconds float64) []op {
	qs := sampleQueries(db, max(400, int(freshPerSecond*seconds)), seed)
	ops := make([]op, len(qs))
	for i, q := range qs {
		if i%4 == 3 {
			ops[i] = diversifyOp(q, i)
		} else {
			ops[i] = rowsOp(q, i)
		}
	}
	return ops
}

// buildRowsZipf: the same two request kinds drawn Zipf from a hot set
// that fits the answer cache many times over. The untimed warm-up sends
// every hot request three times: 2Q admits an answer on its second sight,
// so from the third on qcache does the work and the timed section is the
// steady state. What a first sight costs is what rows.fresh measures.
//
// The hot set belongs to the workload, not to the seed: which queries a
// service's users repeat is a property of the service. The seed orders
// the arrivals. A seed-sampled hot set was tried: a few heavy queries
// decide its p95, which then moved by half between seeds.
func buildRowsZipf(db *relstore.Database, seed int64, _ float64) []op {
	hot := sampleQueries(db, hotSetSize, hotSetSeed)
	request := func(h int, diversify bool) op {
		if diversify {
			return diversifyOp(hot[h], 2*h+1)
		}
		return rowsOp(hot[h], 2*h)
	}
	ops := make([]op, 0, zipfWarmup+zipfDraws)
	// The three sights of a request are adjacent: the cache remembers a
	// rejected first sight only for its next ~16 000 distinct keys, and
	// one pass over the hot set publishes more than that.
	for h := range hot {
		for sight := 0; sight < 3; sight++ {
			ops = append(ops, request(h, false), request(h, true))
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x2f1b))
	zipf := rand.NewZipf(rng, zipfExponent, zipfOffset, hotSetSize-1)
	for len(ops) < cap(ops) {
		ops = append(ops, request(int(zipf.Uint64()), rng.Intn(4) == 3))
	}
	return ops
}

// buildMixedWrite: search 40 / rows 20 / diversify 10 / construct 10 /
// mutate 20 over the same hot set. Every mutate WAL-appends and fsyncs,
// publishes a snapshot and invalidates intersecting cache entries, and
// the default policy checkpoints every 256 batches.
func buildMixedWrite(db *relstore.Database, seed int64, seconds float64) []op {
	rng := rand.New(rand.NewSource(seed ^ 0x7a3d))
	pool := sampleQueries(db, readPoolSize, seed)
	ops := make([]op, max(400, int(mixedPerSecond*seconds)))
	for i := range ops {
		q := pool[rng.Intn(len(pool))]
		switch r := rng.Intn(100); {
		case r < 40:
			ops[i] = searchOp(q, -1)
		case r < 60:
			ops[i] = rowsOp(q, -1)
		case r < 70:
			ops[i] = diversifyOp(q, -1)
		case r < 80:
			ops[i] = constructOp(q)
		default:
			ops[i] = mutateOp(seed, i)
		}
	}
	return ops
}

// opsDigest hashes the head of an op list, which every run length
// shares (no list is shorter than 400 ops): enough to pin the generator.
func opsDigest(ops []op) string {
	h := sha256.New()
	for _, o := range ops[:min(len(ops), 400)] {
		h.Write([]byte{byte(o.kind)})
		h.Write(o.body)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
