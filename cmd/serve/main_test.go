package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	keysearch "repro"
	"repro/internal/loadgen"
)

// buildServeBinary compiles cmd/serve once for the end-to-end tests.
func buildServeBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "serve")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/serve: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves an ephemeral port and releases it for the server.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("server never became healthy")
}

// writeDatasetDump generates a datagen movies dataset big enough that
// searches take real milliseconds (the bundled demo corpora serve in
// ~100µs, too fast for closed-loop clients to ever queue) and writes it
// as an Engine.SaveTo-format dump for serve's -db flag. It also returns
// a heavy-tailed search/rows op stream over that corpus so the load
// loop issues the same Zipf-skewed queries the load harness uses.
func writeDatasetDump(t *testing.T) (string, []loadgen.Op) {
	t.Helper()
	cfg := loadgen.DatasetConfig{Kind: loadgen.KindMovies, TargetRows: 60000, Seed: 42}
	db, err := loadgen.BuildDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "movies.dump")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ops, err := loadgen.BuildWorkload(db, cfg.Kind, loadgen.WorkloadConfig{
		Ops:  64,
		Mix:  loadgen.Mix{Search: 3, Rows: 1},
		Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return path, ops
}

// TestGracefulShutdownUnderLoad is the end-to-end drain test: a real
// serve process with the adaptive governor and a tight queue is
// saturated by closed-loop clients, mutated so there is WAL state to
// flush, and SIGTERMed mid-load. It must (1) complete every accepted
// response intact — every 200 carries decodable JSON, no mid-body
// drops, (2) shed the overflow with structured 429/503s rather than
// hanging, (3) exit zero within the drain budget, and (4) land the
// final checkpoint so the state directory reopens with nothing left
// to replay.
func TestGracefulShutdownUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a real server process")
	}
	bin := buildServeBinary(t)
	dump, ops := writeDatasetDump(t)
	addr := freeAddr(t)
	base := "http://" + addr
	dataDir := filepath.Join(t.TempDir(), "state")

	cmd := exec.Command(bin,
		"-addr", addr,
		"-db", dump,
		"-mutable", "-data-dir", dataDir,
		"-adapt-min", "1", "-max-concurrent", "2",
		"-max-queue", "2", "-queue-timeout", "100ms",
		"-request-timeout", "2s",
	)
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() // no-op on the happy path (already exited)
	waitHealthy(t, base)

	// Mutations so the final checkpoint has something real to flush.
	// Keys use an "sd-" prefix no datagen generator emits, so they can
	// never collide with the dataset's own "a<N>" actor keys.
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(
			`{"mutations":[{"op":"insert","table":"actor","values":["sd-%d","Shutdown Test %d"]}]}`, i, i)
		resp, err := http.Post(base+"/v1/mutate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mutate %d: status %d: %s", i, resp.StatusCode, b)
		}
	}

	// Saturate: far more closed-loop clients than the 2-slot ceiling
	// plus 2-deep queue can hold. On one core a search never blocks, so
	// it runs to completion before the next request is even read and the
	// gate would never see two in flight. Two clients therefore upload
	// oversized bodies slowly: once admitted, each occupies a slot while
	// it waits on the network, and the overflow must be shed whatever
	// the scheduler does.
	var (
		oks, sheds, badBodies atomic.Int64
		termSent              atomic.Bool
		wg                    sync.WaitGroup
	)
	stop := make(chan struct{})
	client := &http.Client{Timeout: 10 * time.Second}
	endpoint := map[loadgen.OpKind]string{
		loadgen.OpSearch: "/v1/search",
		loadgen.OpRows:   "/v1/rows",
	}
	for w := 0; w < 24; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				op := ops[i%len(ops)]
				resp, err := client.Post(base+endpoint[op.Kind], "application/json",
					bytes.NewReader(op.Body))
				if err != nil {
					// Connection errors are expected once the listener
					// is closing; before SIGTERM they are real failures.
					if !termSent.Load() {
						t.Errorf("pre-shutdown request error: %v", err)
					}
					return
				}
				body, readErr := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case readErr != nil:
					// A response, once started, must arrive whole —
					// even during the drain.
					badBodies.Add(1)
				case resp.StatusCode == http.StatusOK:
					if !json.Valid(body) {
						badBodies.Add(1)
					} else {
						oks.Add(1)
					}
				case resp.StatusCode == http.StatusTooManyRequests ||
					resp.StatusCode == http.StatusServiceUnavailable:
					var er struct {
						Code string `json:"code"`
					}
					if json.Unmarshal(body, &er) != nil || er.Code == "" {
						badBodies.Add(1)
					} else {
						sheds.Add(1)
					}
				case resp.StatusCode == http.StatusGatewayTimeout:
					// Deadline expiry under saturation is legitimate.
				default:
					t.Errorf("unexpected status %d: %s", resp.StatusCode, body)
				}
			}
		}(w)
	}

	for h := 0; h < 2; h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := holdSlot(addr, 300*time.Millisecond); err != nil {
					if !termSent.Load() {
						t.Errorf("slot holder: %v", err)
					}
					return
				}
			}
		}()
	}

	// Let the load bite for a couple of governor windows, then SIGTERM
	// mid-saturation.
	time.Sleep(1200 * time.Millisecond)
	termSent.Store(true)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("server exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server hung on SIGTERM (never exited)")
	}
	close(stop)
	wg.Wait()

	if badBodies.Load() != 0 {
		t.Fatalf("%d responses were truncated or structurally broken", badBodies.Load())
	}
	if oks.Load() == 0 {
		t.Fatal("no successful responses before/during shutdown — load never ran")
	}
	if sheds.Load() == 0 {
		t.Fatal("no shed responses under 12x oversubscription — the gate never engaged")
	}

	// The final checkpoint must have landed: reopening the state
	// directory replays nothing and sees every committed mutation.
	eng, err := keysearch.Open(dataDir, keysearch.WithMutations())
	if err != nil {
		t.Fatalf("reopening state dir after shutdown: %v", err)
	}
	defer eng.Close()
	if n := eng.PendingWALBatches(); n != 0 {
		t.Fatalf("WAL tail of %d batches survived shutdown — final checkpoint did not land", n)
	}
	if eng.Epoch() < 3 {
		t.Fatalf("epoch %d after reopen, want >= 3 (committed mutations lost)", eng.Epoch())
	}
}

// bodyCap is httpapi's request body cap (1 MiB): the admission cost peek
// reads at most this much before the gate, and a body one byte longer is
// answered 413.
const bodyCap = 1 << 20

// holdSlot sends a /v1/search request whose declared body is one byte
// over bodyCap. It sends the first bodyCap bytes (JSON whitespace),
// which is all the admission peek reads, so the request reaches the
// gate. Once admitted, the handler blocks reading the missing byte, and
// the request holds its slot for hold. Then the byte goes out and the
// answer is read: 413 if the request was admitted, a structured 429/503
// if it was shed. Any other status is an error, as is a connection
// failure, which is expected only once the server is shutting down.
func holdSlot(addr string, hold time.Duration) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	head := fmt.Sprintf("POST /v1/search HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\n"+
		"Content-Length: %d\r\nConnection: close\r\n\r\n", addr, bodyCap+1)
	if _, err := io.WriteString(conn, head); err != nil {
		return err
	}
	if _, err := conn.Write(bytes.Repeat([]byte(" "), bodyCap)); err != nil {
		return err
	}
	time.Sleep(hold)
	// A shed request may already have been answered and its connection
	// closed, so a failed write is not an error; the answer is.
	_, _ = conn.Write([]byte(" "))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusRequestEntityTooLarge, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return nil
	}
	return fmt.Errorf("oversized slow upload answered %d", resp.StatusCode)
}

// TestHTTPServerTimeouts: the serving listener bounds how long a client
// may take to send headers, a whole request, and how long it may idle
// between requests — and deliberately leaves writes unbounded.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(":0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, ReadTimeout %v, IdleTimeout %v: all must be set",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v: long /v1/rows responses must not be cut off", srv.WriteTimeout)
	}
}
