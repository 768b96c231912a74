package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	keysearch "repro"
	"repro/httpapi"
	"repro/internal/datagen"
	"repro/internal/relstore"
)

// The system under test is one fixed configuration for every workload:
// the movies dataset below behind one in-process httpapi server on a
// loopback listener, driven by exactly two closed-loop clients.
const (
	// datasetRows is the target row count of the movies dataset. The
	// ROADMAP's 1M-row dataset answers ~15 /v1/rows requests per second
	// on this host, too few for a 20-second run to repeat within its
	// bound; at 200k rows the same heavy-tailed shape yields thousands.
	datasetRows = 50_000
	// datasetSeed is fixed: --seed varies the requests, never the data,
	// so frozen.json can pin the dataset and the canary responses.
	datasetSeed = 42
	// answerCacheBytes is the qcache budget; the rows.zipf hot set fits
	// it many times over, the rows.fresh stream does not repeat at all.
	answerCacheBytes = 64 << 20
	// clients is the closed-loop concurrency: two keep-alive connections,
	// fixed rather than derived from the core count.
	clients = 2
	// maxJoinPath is the template length of the thesis's experiments.
	maxJoinPath = 4
)

// buildDataset generates the movies database at the given size, scaling
// the entity counts the way internal/loadgen does (seven rows per movie).
func buildDataset(rows int) (*relstore.Database, error) {
	movies := max(1, rows/7)
	return datagen.IMDB(datagen.IMDBConfig{
		Movies:    movies,
		Actors:    max(1, movies*3/4),
		Directors: max(1, movies/5),
		Companies: max(1, movies/10),
		Seed:      datasetSeed,
	})
}

// datasetDigest hashes every table's schema name and row values in table
// order, so a change to internal/datagen that shifts the data is caught
// before it moves a number.
func datasetDigest(db *relstore.Database) string {
	h := sha256.New()
	for _, t := range db.Tables() {
		fmt.Fprintf(h, "T%s\n", t.Schema.Name)
		for _, row := range t.Rows() {
			for _, v := range row.Values {
				io.WriteString(h, v)
				h.Write([]byte{0})
			}
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// system is one running instance of the system under test.
type system struct {
	db     *relstore.Database // epoch-0 rows; the engine never mutates them
	eng    *keysearch.Engine
	dir    string // durable state directory
	url    string
	server *http.Server
	done   chan error // Serve's return value
}

// engineOptions is the fixed engine configuration: internal/loadgen's
// BuildEngine defaults plus the answer cache and durability with WAL
// fsync on and the default checkpoint policy.
func engineOptions(stateDir string) []keysearch.Option {
	return []keysearch.Option{
		keysearch.WithMaxJoinPath(maxJoinPath),
		keysearch.WithCoOccurrence(),
		keysearch.WithMutations(),
		keysearch.WithAnswerCache(answerCacheBytes),
		keysearch.WithDurability(stateDir),
	}
}

// setUp generates the dataset, builds a durable engine over it and
// serves it on a loopback listener. The returned duration runs from the
// first generated row until the server has answered a request: it is
// the setup_s metric, so work a later change moves into set-up shows.
func setUp(rows int, stateDir string) (*system, time.Duration, error) {
	start := time.Now()
	db, err := buildDataset(rows)
	if err != nil {
		return nil, 0, err
	}
	eng, err := keysearch.NewFromDatabase(db, engineOptions(stateDir)...)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, 0, err
	}
	s := &system{
		db:     db,
		eng:    eng,
		dir:    stateDir,
		url:    "http://" + ln.Addr().String(),
		server: &http.Server{Handler: httpapi.New(eng)},
		done:   make(chan error, 1),
	}
	go func() { s.done <- s.server.Serve(ln) }()
	resp, err := http.Get(s.url + "/healthz")
	if err != nil {
		s.tearDown()
		return nil, 0, fmt.Errorf("healthz after set-up: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	http.DefaultClient.CloseIdleConnections()
	return s, time.Since(start), nil
}

// tearDown stops the server, waits for Serve to return, closes the
// engine (its checkpoint goroutine exits) and removes the state
// directory.
func (s *system) tearDown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.server.Shutdown(ctx)
	<-s.done
	if cerr := s.eng.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// heapMB returns the live heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
