package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	keysearch "repro"
)

// durableTestServer builds a durable mutable engine in a temp dir and
// wraps it in the HTTP front-end.
func durableTestServer(t *testing.T) (*Server, *keysearch.Engine) {
	t.Helper()
	eng, err := keysearch.DemoMoviesWith(3,
		keysearch.WithMutations(),
		keysearch.WithDurability(t.TempDir()),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return New(eng), eng
}

func TestCheckpointEndpoint(t *testing.T) {
	srv, eng := durableTestServer(t)

	// Commit one batch so the checkpoint has something to fold.
	mut := `{"mutations":[{"op":"insert","table":"actor","values":["ck-http","Checkpoint Person"]}]}`
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/mutate", strings.NewReader(mut)))
	if rec.Code != http.StatusOK {
		t.Fatalf("mutate: %d %s", rec.Code, rec.Body)
	}

	// Health before: durable, one pending WAL batch.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var health HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if !health.Durable || health.WALBatches != 1 || health.Epoch != 1 {
		t.Fatalf("healthz before checkpoint = %+v", health)
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/checkpoint", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", rec.Code, rec.Body)
	}
	var stats keysearch.CheckpointStats
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Epoch != 1 || stats.WALBatchesDropped != 1 {
		t.Fatalf("stats = %+v", stats)
	}

	// Health after: WAL drained, checkpoint epoch advanced.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.WALBatches != 0 || health.LastCheckpoint != 1 {
		t.Fatalf("healthz after checkpoint = %+v", health)
	}
	if eng.PendingWALBatches() != 0 {
		t.Fatalf("engine still reports %d pending batches", eng.PendingWALBatches())
	}
}

func TestCheckpointForbiddenWithoutDurability(t *testing.T) {
	eng, err := keysearch.DemoMoviesWith(3, keysearch.WithMutations())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/checkpoint", nil))
	if rec.Code != http.StatusForbidden {
		t.Fatalf("checkpoint on memory-only engine: %d, want 403", rec.Code)
	}
	// And the method gate holds.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/checkpoint", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/checkpoint: %d, want 405", rec.Code)
	}
	// Memory-only healthz reports durable=false and omits WAL fields.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var health HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Durable || health.WALBatches != 0 {
		t.Fatalf("memory-only healthz = %+v", health)
	}
}
