package trapstore

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trapfile"
)

// TestHTTPFlakyServerCountersReconcile asserts the retry/304 observability
// satellite: a flaky daemon (one 503 burst, then healthy with working ETags)
// must leave the client's registry with exactly the retries and conditional
// hits the wire saw.
func TestHTTPFlakyServerCountersReconcile(t *testing.T) {
	m := NewMemory("TSVD", nil)
	inner := NewHandler(m, HandlerOptions{})
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The first two requests fail; everything after is healthy.
		if calls.Add(1) <= 2 {
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	reg := metrics.NewRegistry()
	s, slept := newTestClient(srv.URL, HTTPConfig{Attempts: 4, Metrics: reg})
	defer s.Close()

	if err := s.Publish(trapfile.File{Tool: "TSVD", Pairs: pairs("a", "b")}); err != nil {
		t.Fatal(err) // rides through the 503 burst on retries
	}
	if got := fetchPairs(t, s); len(got) != 1 {
		t.Fatalf("fetch = %v", got)
	}
	if got := fetchPairs(t, s); len(got) != 1 { // unchanged set → 304
		t.Fatalf("cached fetch = %v", got)
	}

	got := reg.Values()
	for series, want := range map[string]float64{
		`tsvd_store_ops_total{op="publish"}`:                 1,
		`tsvd_store_ops_total{op="fetch"}`:                   2,
		`tsvd_store_ops_total{op="retry"}`:                   float64(len(*slept)),
		`tsvd_store_ops_total{op="not_modified"}`:            1,
		`tsvd_store_op_duration_seconds_count{op="publish"}`: 1,
		`tsvd_store_op_duration_seconds_count{op="fetch"}`:   2,
	} {
		if got[series] != want {
			t.Errorf("%s = %v, want %v", series, got[series], want)
		}
	}
	if len(*slept) != 2 {
		t.Fatalf("client slept %d times, want 2 (one per 503)", len(*slept))
	}
	// The registry-backed counters and Totals read the same atomics.
	tot := s.Totals()
	if tot.Fetches != 2 || tot.Publishes != 1 {
		t.Fatalf("totals diverged from registry: %+v", tot)
	}
}

// TestHandlerRejectsOversizePayload is the MaxBytesReader satellite: a body
// past defaultMaxTrapPayload gets a 413 and merges nothing.
func TestHandlerRejectsOversizePayload(t *testing.T) {
	m := NewMemory("TSVD", nil)
	srv := httptest.NewServer(NewHandler(m, HandlerOptions{}))
	defer srv.Close()

	body := `{"version":1,"tool":"` + strings.Repeat("x", defaultMaxTrapPayload) + `"}`
	resp, err := http.Post(srv.URL+TrapsPath, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize payload: got %s, want 413", resp.Status)
	}
	var we wireError
	if err := json.NewDecoder(resp.Body).Decode(&we); err != nil || we.Error == "" {
		t.Fatalf("413 body not a wireError: %v (%+v)", err, we)
	}
	if f, _ := m.SnapshotState(); len(f.Pairs) != 0 {
		t.Fatalf("oversize payload still merged: %v", f.Pairs)
	}
}

// TestHandlerHealthzJSON covers the enriched liveness probe: JSON body with
// Content-Type, carrying generation, pair count and uptime.
func TestHandlerHealthzJSON(t *testing.T) {
	m := NewMemory("TSVD", nil)
	m.Publish(trapfile.File{Tool: "TSVD", Pairs: pairs("a", "b", "c", "d")})
	srv := httptest.NewServer(NewHandler(m, HandlerOptions{}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("healthz Content-Type = %q", ct)
	}
	var h wireHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Generation != 1 || h.Pairs != 2 || h.UptimeSeconds < 0 {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestHandlerNoSnapshotOnNoOpMerge: a merge that adds nothing must not run
// the persistence hook (which is where the snapshot copy happens).
func TestHandlerNoSnapshotOnNoOpMerge(t *testing.T) {
	m := NewMemory("TSVD", nil)
	var merges atomic.Int64
	srv := httptest.NewServer(NewHandler(m, HandlerOptions{OnMerge: func(trapfile.File, SyncState) { merges.Add(1) }}))
	defer srv.Close()

	s, _ := newTestClient(srv.URL, HTTPConfig{})
	defer s.Close()
	f := trapfile.File{Tool: "TSVD", Pairs: pairs("a", "b")}
	if err := s.Publish(f); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(f); err != nil { // identical: no growth
		t.Fatal(err)
	}
	if merges.Load() != 1 {
		t.Fatalf("onMerge ran %d times, want 1 (no-op merge must not snapshot)", merges.Load())
	}
}

// TestHandlerMetricsEndpoint: GET /metrics serves the registry with the
// daemon families, and its own request is included in the counts.
func TestHandlerMetricsEndpoint(t *testing.T) {
	m := NewMemory("TSVD", nil)
	reg := metrics.NewRegistry()
	srv := httptest.NewServer(NewHandler(m, HandlerOptions{Metrics: reg}))
	defer srv.Close()

	s, _ := newTestClient(srv.URL, HTTPConfig{})
	defer s.Close()
	if err := s.Publish(trapfile.File{Tool: "TSVD", Pairs: pairs("a", "b", "c", "d")}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	var sb strings.Builder
	var buf [4096]byte
	for {
		n, err := resp.Body.Read(buf[:])
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	body := sb.String()
	for _, want := range []string{
		"tsvd_trapd_generation 1",
		"tsvd_trapd_pairs 2",
		"tsvd_trapd_merges_total 1",
		"tsvd_trapd_merged_pairs_total 2",
		`tsvd_trapd_requests_total{endpoint="traps_post"} 1`,
		// Entry-increment semantics: the scrape reports itself.
		`tsvd_trapd_requests_total{endpoint="metrics"} 1`,
		`tsvd_trapd_request_seconds_count{endpoint="traps_post"} 1`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}
