package bench

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/prob"
	"repro/internal/relstore"
	"repro/internal/topk"
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
// dataset of the topk, executor and durable legs, so their
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

// topkK is the K of the topk leg's requests; each interpretation
// materialises at most 4·K results, as a SearchRows request does.
const topkK = 10

// topkOps times top-k plan execution, the one concurrent stage of the
// interpretation pipeline: keyword count × wave width. One operation is
// one topk.TopKContext call over the query's ranked interpretation space
// with the options a SearchRows request with K=topkK uses. p=1 is the
// baseline of its keyword count; the self-check pins that every width
// returns p=1's results and Stats, so the comparison is purely about
// speed — and only means something with free cores.
func topkOps(cfg Config) (*microSpec, error) {
	const maxKeywords = 3
	f, err := newPlanFixture()
	if err != nil {
		return nil, err
	}
	keywords := ambiguousKeywords(f.ix, f.db, maxKeywords)
	if len(keywords) < maxKeywords {
		return nil, fmt.Errorf("only %d ambiguous sample keywords", len(keywords))
	}
	kws, widths := []int{1, 2, 3}, []int{1, 2, 4, 8}
	if cfg.Quick {
		kws, widths = []int{2}, []int{1, 2, 4}
	}
	scorer := &topk.TFScorer{IX: f.ix}
	run := func(ranked []prob.Scored, p int) ([]topk.Result, topk.Stats, error) {
		return topk.TopKContext(context.Background(), f.db, ranked, scorer,
			topk.Options{K: topkK, PerInterpretationLimit: 4 * topkK, Parallelism: p})
	}
	spaces := make([][]prob.Scored, len(kws))
	spec := &microSpec{
		dataset: microDataset,
		params:  map[string]any{"keywords": strings.Join(keywords, " "), "k": topkK},
		// Every width must return p=1's results and Stats.
		verify: func() error {
			for i, ranked := range spaces {
				want, wantStats, err := run(ranked, 1)
				if err != nil {
					return err
				}
				if len(want) == 0 {
					return fmt.Errorf("kw=%d: no results", kws[i])
				}
				for _, p := range widths[1:] {
					got, stats, err := run(ranked, p)
					if err != nil {
						return err
					}
					if stats != wantStats || !reflect.DeepEqual(got, want) {
						return fmt.Errorf("kw=%d/p=%d diverged from p=1", kws[i], p)
					}
				}
			}
			return nil
		},
	}
	for i, kw := range kws {
		ranked, err := f.ranked(keywords[:kw])
		if err != nil {
			return nil, err
		}
		spaces[i] = ranked
		for _, p := range widths {
			op := microOp{name: fmt.Sprintf("kw=%d/p=%d", kw, p), run: func() error {
				_, _, err := run(ranked, p)
				return err
			}}
			if p != 1 {
				op.ratio, op.versus = "speedup_vs_sequential", fmt.Sprintf("kw=%d/p=1", kw)
			}
			spec.ops = append(spec.ops, op)
		}
	}
	return spec, nil
}
