package trapstore

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trapfile"
)

// newTestClient points an HTTPStore with a fast, deterministic-bounded
// retry policy at url and records every backoff sleep instead of waiting.
func newTestClient(url string, cfg HTTPConfig) (*HTTPStore, *[]time.Duration) {
	s := NewHTTPStore(url, cfg)
	slept := &[]time.Duration{}
	s.sleep = func(d time.Duration) error { *slept = append(*slept, d); return nil }
	return s, slept
}

// TestCloseCancelsRetryBackoff parks a client in a long backoff against a
// daemon that only ever answers 500, closes the store mid-retry, and asserts
// the operation returns promptly (well before the backoff schedule would
// have elapsed) with an ErrUnavailable-wrapped error.
func TestCloseCancelsRetryBackoff(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()

	// Real sleeps (no test seam): the first retry backoff alone is >= 15s,
	// so only cancellation can explain a prompt return.
	s := NewHTTPStore(srv.URL, HTTPConfig{
		Attempts:    4,
		BackoffBase: 30 * time.Second,
		BackoffMax:  30 * time.Second,
	})

	done := make(chan error, 1)
	go func() {
		_, err := s.Fetch()
		done <- err
	}()

	// Wait until the client is actually parked in its first backoff sleep
	// (one failed attempt recorded) before closing.
	deadline := time.Now().Add(5 * time.Second)
	for s.retries.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("client never reached its first retry backoff")
		}
		time.Sleep(time.Millisecond)
	}
	begin := time.Now()
	s.Close()

	select {
	case err := <-done:
		if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("Fetch after Close = %v, want ErrUnavailable", err)
		}
		if waited := time.Since(begin); waited > 2*time.Second {
			t.Fatalf("Fetch returned %v after Close; want prompt return", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Fetch still blocked 5s after Close; backoff sleep ignored cancellation")
	}

	// Operations after Close must fail fast, not hang in fresh backoffs.
	begin = time.Now()
	if err := s.Publish(trapfile.File{Version: trapfile.FormatVersion}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Publish after Close = %v, want ErrUnavailable", err)
	}
	if waited := time.Since(begin); waited > 2*time.Second {
		t.Fatalf("Publish after Close took %v; want prompt failure", waited)
	}
}

func TestHTTPRoundTripAndETag(t *testing.T) {
	m := NewMemory("TSVD", nil)
	var gets, notModified atomic.Int64
	inner := NewHandler(m, HandlerOptions{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.URL.Path == TrapsPath {
			gets.Add(1)
			if r.Header.Get("If-None-Match") != "" {
				rec := httptest.NewRecorder()
				inner.ServeHTTP(rec, r)
				if rec.Code == http.StatusNotModified {
					notModified.Add(1)
				}
				for k, vs := range rec.Header() {
					for _, v := range vs {
						w.Header().Add(k, v)
					}
				}
				w.WriteHeader(rec.Code)
				w.Write(rec.Body.Bytes())
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	s, _ := newTestClient(srv.URL, HTTPConfig{})
	defer s.Close()

	if got := fetchPairs(t, s); len(got) != 0 {
		t.Fatalf("fresh daemon not empty: %v", got)
	}
	if err := s.Publish(trapfile.File{Tool: "TSVD", Pairs: pairs("a", "b", "c", "d")}); err != nil {
		t.Fatal(err)
	}
	if got := fetchPairs(t, s); len(got) != 2 {
		t.Fatalf("published pairs not served back: %v", got)
	}
	// Nothing changed: the next fetch must ride the ETag (304, cached copy).
	if got := fetchPairs(t, s); len(got) != 2 {
		t.Fatalf("cached fetch = %v", got)
	}
	if notModified.Load() == 0 {
		t.Fatal("conditional fetch never produced a 304; ETag polling is broken")
	}
	tot := s.Totals()
	if tot.Fetches != 3 || tot.Publishes != 1 {
		t.Fatalf("totals = %+v", tot)
	}
}

func TestHTTPRetriesThrough5xxBurst(t *testing.T) {
	m := NewMemory("TSVD", nil)
	m.Publish(trapfile.File{Pairs: pairs("a", "b")})
	inner := NewHandler(m, HandlerOptions{})
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A burst of two 503s, then healthy: the client must absorb it.
		if calls.Add(1) <= 2 {
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	s, slept := newTestClient(srv.URL, HTTPConfig{Attempts: 4})
	defer s.Close()
	got := fetchPairs(t, s)
	if len(got) != 1 {
		t.Fatalf("fetch through 5xx burst = %v", got)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 failures + 1 success)", calls.Load())
	}
	if len(*slept) != 2 {
		t.Fatalf("client slept %d times, want one backoff per failed attempt (2)", len(*slept))
	}
}

func TestHTTPGivesUpAfterAttemptsWithErrUnavailable(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	s, slept := newTestClient(srv.URL, HTTPConfig{Attempts: 3})
	defer s.Close()
	_, err := s.Fetch()
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("exhausted retries = %v, want ErrUnavailable", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want exactly Attempts=3", calls.Load())
	}
	if len(*slept) != 2 {
		t.Fatalf("%d backoffs for 3 attempts, want 2", len(*slept))
	}
	if s.Totals().Fetches != 0 {
		t.Fatal("failed fetch counted as success")
	}
}

func TestHTTPBackoffScheduleBounds(t *testing.T) {
	base, max := 50*time.Millisecond, 400*time.Millisecond
	s := NewHTTPStore("http://127.0.0.1:0", HTTPConfig{
		BackoffBase: base, BackoffMax: max, Attempts: 8,
	})
	defer s.Close()
	// Retry i sleeps a jittered base·2^i capped at max: within [d/2, d].
	for retry := 0; retry < 16; retry++ {
		want := base << retry
		if want <= 0 || want > max {
			want = max
		}
		for trial := 0; trial < 64; trial++ {
			got := s.backoffDelay(retry)
			if got < want/2 || got > want {
				t.Fatalf("backoffDelay(%d) = %v outside [%v, %v]", retry, got, want/2, want)
			}
		}
	}
}

func TestHTTPTimeoutOnHangingServer(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // hang far past the client's timeout
	}))
	defer func() { close(release); srv.Close() }()

	s, slept := newTestClient(srv.URL, HTTPConfig{Timeout: 50 * time.Millisecond, Attempts: 2})
	defer s.Close()
	start := time.Now()
	_, err := s.Fetch()
	elapsed := time.Since(start)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("hanging server = %v, want ErrUnavailable", err)
	}
	// Two attempts at 50ms each, with sleeps intercepted: the per-request
	// timeout must bound the stall (generous margin for CI scheduling).
	if elapsed > 2*time.Second {
		t.Fatalf("hanging server stalled the client for %v", elapsed)
	}
	if len(*slept) != 1 {
		t.Fatalf("%d backoffs for 2 attempts, want 1", len(*slept))
	}
}

func TestHTTPServerDiesMidRun(t *testing.T) {
	m := NewMemory("TSVD", nil)
	srv := httptest.NewServer(NewHandler(m, HandlerOptions{}))

	s, _ := newTestClient(srv.URL, HTTPConfig{Attempts: 2, Timeout: time.Second})
	defer s.Close()
	if err := s.Publish(trapfile.File{Pairs: pairs("a", "b")}); err != nil {
		t.Fatal(err)
	}

	srv.Close() // the daemon dies between operations

	if _, err := s.Fetch(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("fetch from dead daemon = %v, want ErrUnavailable", err)
	}
	if err := s.Publish(trapfile.File{Pairs: pairs("c", "d")}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("publish to dead daemon = %v, want ErrUnavailable", err)
	}
}

func TestHTTPVersionMismatchIsCorruptNotRetried(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"version": 99, "tool": "future", "pairs": []}`))
	}))
	defer srv.Close()

	s, slept := newTestClient(srv.URL, HTTPConfig{Attempts: 5})
	defer s.Close()
	_, err := s.Fetch()
	if !errors.Is(err, trapfile.ErrCorrupt) {
		t.Fatalf("foreign version = %v, want ErrCorrupt", err)
	}
	if errors.Is(err, ErrUnavailable) {
		t.Fatal("data error misclassified as unavailability")
	}
	if calls.Load() != 1 || len(*slept) != 0 {
		t.Fatalf("data error was retried: %d calls, %d sleeps", calls.Load(), len(*slept))
	}
}

func TestHTTPServerRejectsForeignVersionPublish(t *testing.T) {
	m := NewMemory("TSVD", nil)
	srv := httptest.NewServer(NewHandler(m, HandlerOptions{}))
	defer srv.Close()

	resp, err := http.Post(srv.URL+TrapsPath, "application/json",
		strings.NewReader(`{"version": 99, "pairs": [{"a":"x","b":"y"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("foreign version accepted: %s", resp.Status)
	}
	if f, _ := m.SnapshotState(); len(f.Pairs) != 0 {
		t.Fatalf("rejected payload still merged: %v", f.Pairs)
	}
}

// TestFallbackToFilePreservesLocalDiscoveries is the satellite's headline
// fault scenario end-to-end in-process: a shard publishes through a
// Fallback whose daemon dies mid-run; every locally discovered pair must
// survive in the local trap file and no operation may error.
func TestFallbackToFilePreservesLocalDiscoveries(t *testing.T) {
	m := NewMemory("TSVD", nil)
	srv := httptest.NewServer(NewHandler(m, HandlerOptions{}))

	localPath := filepath.Join(t.TempDir(), "local.json")
	client, _ := newTestClient(srv.URL, HTTPConfig{Attempts: 2, Timeout: time.Second})
	s := NewFallback(client, NewFileStore(localPath, nil), nil)
	defer s.Close()

	if err := s.Publish(trapfile.File{Tool: "TSVD", Pairs: pairs("run1a", "run1b")}); err != nil {
		t.Fatal(err)
	}
	srv.Close() // daemon killed mid-run
	if err := s.Publish(trapfile.File{Tool: "TSVD", Pairs: pairs("run2a", "run2b")}); err != nil {
		t.Fatalf("publish after daemon death errored: %v", err)
	}
	got, err := s.Fetch()
	if err != nil {
		t.Fatalf("fetch after daemon death errored: %v", err)
	}
	if len(got.Pairs) != 2 {
		t.Fatalf("pairs lost after daemon death: %v", got.Pairs)
	}
	onDisk, err := trapfile.LoadFile(localPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk.Pairs) != 2 {
		t.Fatalf("local trap file lost pairs: %v", onDisk.Pairs)
	}
	if s.Totals().Fallbacks == 0 {
		t.Fatal("degradation not accounted")
	}
}
