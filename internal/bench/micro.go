package bench

import (
	"context"
	"fmt"
	"strings"
	"testing"

	keysearch "repro"
	"repro/internal/datagen"
	"repro/internal/relstore"
)

// microOp is one row of a micro leg: a named operation timed through
// testing.Benchmark.
type microOp struct {
	name string
	run  func() error
	// ratio names the column this row carries, versus the earlier row
	// whose ns/op is its numerator; both empty on a baseline row.
	ratio, versus string
}

// microSpec is what a micro leg's setup returns: the fixtures are
// built, the operations are ready to be called any number of times.
type microSpec struct {
	dataset string
	params  map[string]any
	ops     []microOp
	// verify is the leg's self-check, run before anything is timed so a
	// run cannot silently measure diverging engines; nil when the leg
	// has none.
	verify func() error
	// close releases on-disk fixtures; nil when there are none.
	close func()
}

// microLeg registers a testing.Benchmark leg: verify, then time every
// op in order and derive each ratio as versus-ns/op over own-ns/op.
func microLeg(name string, tolerance float64, setup func(Config) (*microSpec, error)) Leg {
	run := func(_ *Env, cfg Config) (LegReport, error) {
		spec, err := setup(cfg)
		if err != nil {
			return LegReport{}, err
		}
		if spec.close != nil {
			defer spec.close()
		}
		if spec.verify != nil {
			if err := spec.verify(); err != nil {
				return LegReport{}, err
			}
		}
		rep := LegReport{Dataset: spec.dataset, Params: spec.params}
		ns := map[string]float64{}
		for _, op := range spec.ops {
			m, err := benchmark(op.run)
			if err != nil {
				return LegReport{}, fmt.Errorf("%s: %w", op.name, err)
			}
			row := Row{Name: op.name, Metrics: m}
			ns[op.name] = m["ns_per_op"]
			if op.ratio != "" && ns[op.versus] > 0 && m["ns_per_op"] > 0 {
				row.Ratios = map[string]float64{op.ratio: ns[op.versus] / m["ns_per_op"]}
			}
			rep.Rows = append(rep.Rows, row)
		}
		return rep, nil
	}
	return Leg{Name: name, Tolerance: tolerance, Run: run, micro: setup}
}

// benchmark times op through testing.Benchmark and returns the four
// numbers every micro row records.
func benchmark(op func() error) (map[string]float64, error) {
	var opErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if opErr = op(); opErr != nil {
				b.Skip(opErr)
			}
		}
	})
	if opErr != nil {
		return nil, opErr
	}
	return map[string]float64{
		"ops":           float64(r.N),
		"ns_per_op":     float64(r.NsPerOp()),
		"bytes_per_op":  float64(r.AllocedBytesPerOp()),
		"allocs_per_op": float64(r.AllocsPerOp()),
	}, nil
}

// The demo movie generator at microScale× its default row counts
// (≈1000 movies, 750 actors), deterministic for microSeed, is the
// dataset of the pipeline, executor and durable legs, so their
// artifacts describe the same data.
const (
	microSeed  = 21
	microScale = 2.5
)

const microDataset = "demo-movies scaled 2.5x"

// demoMovies generates the raw demo movie database at scale× the
// default row counts, for the legs that need the rows themselves (plan
// lists, dumps) and not a built engine.
func demoMovies(scale float64) (*relstore.Database, error) {
	return datagen.IMDB(datagen.IMDBConfig{
		Movies:    int(400 * scale),
		Actors:    int(300 * scale),
		Directors: int(80 * scale),
		Companies: int(40 * scale),
		Seed:      microSeed,
	})
}

// pipelineOps is the interpretation-pipeline grid: keyword count ×
// parallelism, plus score-cache ablation rows at the heaviest keyword
// count. One operation is a ranked interpretation search plus global
// top-k row retrieval, i.e. every parallel stage (per-template generation,
// concurrent scoring, fanned-out plan execution). p=1 is the baseline
// of its keyword count and cache setting; the determinism suite pins
// that every level answers byte-identically, so the comparison is
// purely about speed — and only means something with free cores.
func pipelineOps(cfg Config) (*microSpec, error) {
	const maxKeywords = 3
	type grid struct {
		kw, p   int
		nocache bool
	}
	var cases []grid
	if cfg.Quick {
		cases = []grid{{kw: 2, p: 1}, {kw: 2, p: 2}, {kw: 2, p: 4}}
	} else {
		for kw := 1; kw <= maxKeywords; kw++ {
			for _, p := range []int{1, 2, 4, 8} {
				cases = append(cases, grid{kw: kw, p: p})
			}
		}
		cases = append(cases, grid{kw: maxKeywords, p: 1, nocache: true}, grid{kw: maxKeywords, p: 4, nocache: true})
	}
	name := func(c grid) string {
		n := fmt.Sprintf("kw=%d/p=%d", c.kw, c.p)
		if c.nocache {
			n += "/nocache"
		}
		return n
	}

	spec := &microSpec{dataset: microDataset, params: map[string]any{}}
	engines := map[grid]*keysearch.Engine{} // one per (p, cache), all over identical data
	var tokens []string
	for _, c := range cases {
		key := grid{p: c.p, nocache: c.nocache}
		eng := engines[key]
		if eng == nil {
			var err error
			eng, err = keysearch.DemoMoviesScaled(microSeed, microScale,
				keysearch.WithParallelism(c.p), keysearch.WithScoreCache(!c.nocache))
			if err != nil {
				return nil, err
			}
			engines[key] = eng
		}
		if tokens == nil {
			if tokens = eng.SampleQueries(maxKeywords); len(tokens) < maxKeywords {
				return nil, fmt.Errorf("only %d sample tokens", len(tokens))
			}
		}
		query := strings.Join(tokens[:c.kw], " ")
		op := microOp{name: name(c), run: func() error {
			ctx := context.Background()
			if _, err := eng.Search(ctx, keysearch.SearchRequest{Query: query, K: 10}); err != nil {
				return err
			}
			_, err := eng.SearchRows(ctx, keysearch.RowsRequest{Query: query, K: 10})
			return err
		}}
		if c.p != 1 {
			op.ratio, op.versus = "speedup_vs_sequential", name(grid{kw: c.kw, p: 1, nocache: c.nocache})
		}
		spec.ops = append(spec.ops, op)
	}
	return spec, nil
}
