package bench

import (
	"fmt"
	"testing"

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

// microLeg registers a testing.Benchmark leg, guarded at 25%: verify,
// then time every op in order and derive each ratio as versus-ns/op over
// own-ns/op.
func microLeg(name string, setup func() (*microSpec, error)) Leg {
	run := func(*Env, Config) (LegReport, error) {
		spec, err := setup()
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
	return Leg{Name: name, Tolerance: 0.25, Run: run, micro: setup}
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
// dataset of the durable leg.
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
