package trapstore

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/sites"
	"repro/internal/trapfile"
)

// swapServer hosts a swappable handler behind one stable URL, standing in
// for a daemon host that restarts (new process, same address) — the situation
// the epoch-qualified sync state exists for.
type swapServer struct {
	mu  sync.Mutex
	h   http.Handler
	srv *httptest.Server
}

func newSwapServer(h http.Handler) *swapServer {
	s := &swapServer{h: h}
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		h := s.h
		s.mu.Unlock()
		if h == nil {
			http.Error(w, "daemon unreachable", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	return s
}

func (s *swapServer) swap(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func keySet(ps []trapfile.Pair) map[trapfile.Pair]bool {
	out := make(map[trapfile.Pair]bool, len(ps))
	for _, p := range ps {
		out[p] = true
	}
	return out
}

// TestRestartETagCollisionEmptyDaemon is the regression test for the
// restart ETag collision: a client that cached generation G from one daemon
// lifetime polls a restarted (empty) daemon that has re-reached generation G
// with different pairs. Under the old generation-only ETag ("g1") the daemon
// answered 304 and the client kept the dead lifetime's pairs forever; the
// epoch-qualified ETag never matches across boots, forcing the full refetch.
func TestRestartETagCollisionEmptyDaemon(t *testing.T) {
	m1 := NewMemory("TSVD", nil)
	gate := newSwapServer(NewHandler(m1, HandlerOptions{}))
	defer gate.srv.Close()

	s, _ := newTestClient(gate.srv.URL, HTTPConfig{})
	defer s.Close()

	if err := s.Publish(trapfile.File{Tool: "TSVD", Pairs: pairs("old.go:1", "old.go:2")}); err != nil {
		t.Fatal(err)
	}
	if got := fetchPairs(t, s); len(got) != 1 {
		t.Fatalf("first fetch = %v", got)
	}
	if g := m1.Status().Generation; g != 1 {
		t.Fatalf("old lifetime at generation %d, want 1", g)
	}

	// The daemon dies losing everything (no snapshot) and restarts empty at
	// the same address; a different publish brings the NEW lifetime to the
	// same generation 1 the client's cache cursor names.
	m2 := NewMemory("TSVD", nil)
	gate.swap(NewHandler(m2, HandlerOptions{}))
	if err := s.Publish(trapfile.File{Tool: "TSVD", Pairs: pairs("new.go:1", "new.go:2")}); err != nil {
		t.Fatal(err)
	}
	if g := m2.Status().Generation; g != 1 {
		t.Fatalf("new lifetime at generation %d, want 1 (the colliding generation)", g)
	}

	got := fetchPairs(t, s)
	want := pairs("new.go:1", "new.go:2")
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("fetch across restart = %v, want %v (a stale 304 kept the dead lifetime's pairs)", got, want)
	}
	ws := s.WireStats()
	if ws.NotModified != 0 {
		t.Fatalf("client got %d not-modified answers across the restart; the collision is back", ws.NotModified)
	}
}

// TestRestartETagCollisionSeededDaemon covers the harder seeded variant: a
// kill-9 lands between a merge the client observed and its snapshot save, so
// the restarted daemon restores below the client's cached generation and
// legitimately re-reaches it with different pairs.
func TestRestartETagCollisionSeededDaemon(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "snapshot.json")
	persister := NewSnapshotPersister(snapPath)

	m1 := NewMemory("TSVD", nil)
	gate := newSwapServer(NewHandler(m1, HandlerOptions{}))
	defer gate.srv.Close()
	s, _ := newTestClient(gate.srv.URL, HTTPConfig{})
	defer s.Close()

	// Generation 1 is persisted; generation 2 is observed by the client but
	// the process dies before the save (the kill-9 window).
	if err := s.Publish(trapfile.File{Tool: "TSVD", Pairs: pairs("a.go:1", "a.go:2")}); err != nil {
		t.Fatal(err)
	}
	f1, st1 := m1.SnapshotState()
	if err := persister.Save(f1, st1); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(trapfile.File{Tool: "TSVD", Pairs: pairs("lost.go:1", "lost.go:2")}); err != nil {
		t.Fatal(err)
	}
	if got := fetchPairs(t, s); len(got) != 2 {
		t.Fatalf("client observed %v before the crash", got)
	}
	if m1.Status().Generation != 2 {
		t.Fatalf("old lifetime at generation %d, want 2", m1.Status().Generation)
	}

	// Restart: restoring the snapshot continues generation 1 and bumps past
	// it — landing exactly on generation 2, the number the client's cursor
	// names, with a smaller set (the unsaved pair is gone).
	seed, prev, err := persister.Load()
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewMemory("TSVD", nil)
	m2.Restore(seed, prev)
	gate.swap(NewHandler(m2, HandlerOptions{}))
	if m2.Status().Generation != 2 {
		t.Fatalf("restored lifetime at generation %d, want 2 (the colliding generation)", m2.Status().Generation)
	}

	// The poll at the colliding generation: a generation-only ETag would 304
	// and the client would keep serving the lost pair forever; the fresh
	// epoch forces the full refetch that drops it.
	got := keySet(fetchPairs(t, s))
	want := keySet(pairs("a.go:1", "a.go:2"))
	if len(got) != len(want) || !got[pairs("a.go:1", "a.go:2")[0]] {
		t.Fatalf("fetch across restart = %v, want only %v (a stale 304 kept the unsaved pair)", got, want)
	}

	// And the client resumes normal incremental polling against the new
	// lifetime.
	if err := s.Publish(trapfile.File{Tool: "TSVD", Pairs: pairs("fresh.go:1", "fresh.go:2")}); err != nil {
		t.Fatal(err)
	}
	after := keySet(fetchPairs(t, s))
	if len(after) != 2 || !after[pairs("fresh.go:1", "fresh.go:2")[0]] {
		t.Fatalf("post-restart publish+fetch = %v", after)
	}
	if ws := s.WireStats(); ws.DeltaFetches != 1 {
		t.Fatalf("post-restart poll was not delta-sized: %+v", ws)
	}
}

// TestRestoreContinuesGenerationAcrossKill9 asserts the persisted
// (epoch, generation) survive a simulated kill-9 + restart with the right
// halves: the generation continues monotonically (no number is ever reused
// for a different set), while the epoch is minted fresh (reusing the old one
// would reopen the stale-304 window).
func TestRestoreContinuesGenerationAcrossKill9(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "snapshot.json")
	p := NewSnapshotPersister(snapPath)

	m1 := NewMemory("TSVD", nil)
	for i := 0; i < 5; i++ {
		m1.merge(trapfile.File{Tool: "TSVD", Pairs: pairs(
			fmt.Sprintf("k%d.go:1", i), fmt.Sprintf("k%d.go:2", i))})
		if err := p.Save(m1.SnapshotState()); err != nil {
			t.Fatal(err)
		}
	}
	oldState := m1.Status().SyncState
	if oldState.Generation != 5 {
		t.Fatalf("generation = %d, want 5", oldState.Generation)
	}

	// kill-9: nothing but the snapshot file survives; even the persister is
	// a fresh instance in the new process.
	seed, prev, err := NewSnapshotPersister(snapPath).Load()
	if err != nil {
		t.Fatal(err)
	}
	if prev.Epoch != oldState.Epoch || prev.Generation != 5 {
		t.Fatalf("persisted state = %+v, want epoch %x generation 5", prev, oldState.Epoch)
	}
	m2 := NewMemory("TSVD", nil)
	m2.Restore(seed, prev)

	newState := m2.Status().SyncState
	if newState.Generation <= oldState.Generation {
		t.Fatalf("restored generation %d did not advance past the persisted %d: a client cursor from the old lifetime could false-match",
			newState.Generation, oldState.Generation)
	}
	if newState.Epoch == oldState.Epoch {
		t.Fatal("restore reused the persisted epoch; a kill-9 between merge and save would resurrect stale 304s")
	}
	if m2.PairCount() != 5 {
		t.Fatalf("restored set has %d pairs, want 5", m2.PairCount())
	}
	if _, st := m2.merge(trapfile.File{Tool: "TSVD", Pairs: pairs("post.go:1", "post.go:2")}); st.Generation <= newState.Generation {
		t.Fatalf("post-restore merge assigned generation %d, want > %d", st.Generation, newState.Generation)
	}
}

// TestFetchReturnsDefensiveCopy mutates the File each fetch path returns —
// full, 304-cached, and delta — and asserts the client's cache is unharmed:
// the next fetch still returns the daemon's set.
func TestFetchReturnsDefensiveCopy(t *testing.T) {
	m := NewMemory("TSVD", nil)
	srv := httptest.NewServer(NewHandler(m, HandlerOptions{}))
	defer srv.Close()
	s, _ := newTestClient(srv.URL, HTTPConfig{})
	defer s.Close()

	if err := s.Publish(trapfile.File{Tool: "TSVD", Pairs: pairs("a.go:1", "a.go:2", "b.go:1", "b.go:2")}); err != nil {
		t.Fatal(err)
	}
	clobber := func(f trapfile.File) {
		for i := range f.Pairs {
			f.Pairs[i] = trapfile.Pair{A: "clobbered", B: "clobbered"}
		}
		//nolint:staticcheck // the append result is deliberately dropped: the
		// point is writing into any spare capacity aliased with the cache.
		_ = append(f.Pairs, trapfile.Pair{A: "x", B: "y"})
	}

	// Full-fetch path.
	f1, err := s.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	clobber(f1)

	// 304 path: served from the cache the clobber tried to corrupt.
	f2, err := s.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.Pairs) != 2 || f2.Pairs[0].A == "clobbered" {
		t.Fatalf("cache corrupted through the full-fetch result: %v", f2.Pairs)
	}
	clobber(f2)

	// Delta path: the daemon grows, the client merges the delta into the
	// cache the previous clobber tried to corrupt.
	if err := s.Publish(trapfile.File{Tool: "TSVD", Pairs: pairs("c.go:1", "c.go:2")}); err != nil {
		t.Fatal(err)
	}
	f3, err := s.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	if len(f3.Pairs) != 3 || f3.Pairs[0].A == "clobbered" {
		t.Fatalf("cache corrupted through the 304 result: %v", f3.Pairs)
	}
	clobber(f3)
	f4, err := s.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	if len(f4.Pairs) != 3 || f4.Pairs[0].A == "clobbered" {
		t.Fatalf("cache corrupted through the delta result: %v", f4.Pairs)
	}

	ws := s.WireStats()
	if ws.DeltaFetches != 1 {
		t.Fatalf("wire stats counted %d delta fetches, want exactly 1: %+v", ws.DeltaFetches, ws)
	}
}

// TestFetchDeltaEconomy asserts the poll-cost claim directly: once a client
// holds a snapshot, a daemon that grew by one pair sends only that pair (a
// delta body), not the whole set, and an idle daemon sends no body at all.
func TestFetchDeltaEconomy(t *testing.T) {
	m := NewMemory("TSVD", nil)
	srv := httptest.NewServer(NewHandler(m, HandlerOptions{}))
	defer srv.Close()
	s, _ := newTestClient(srv.URL, HTTPConfig{})
	defer s.Close()

	// A sizable base set, then the first (full) fetch.
	var base []trapfile.Pair
	for i := 0; i < 200; i++ {
		base = append(base, trapfile.Pair{A: fmt.Sprintf("base%03d.go:1", i), B: fmt.Sprintf("base%03d.go:2", i)})
	}
	if err := s.Publish(trapfile.File{Tool: "TSVD", Pairs: base}); err != nil {
		t.Fatal(err)
	}
	if got := fetchPairs(t, s); len(got) != 200 {
		t.Fatalf("full fetch returned %d pairs", len(got))
	}
	fullBytes := s.WireStats().FetchBytes

	// Idle poll: a 304, zero body bytes.
	if got := fetchPairs(t, s); len(got) != 200 {
		t.Fatalf("304 fetch returned %d pairs", len(got))
	}
	afterIdle := s.WireStats()
	if afterIdle.NotModified != 1 || afterIdle.FetchBytes != fullBytes {
		t.Fatalf("idle poll was not free: %+v (full fetch cost %d bytes)", afterIdle, fullBytes)
	}

	// One-pair growth: a delta body, a small fraction of the full snapshot.
	if err := s.Publish(trapfile.File{Tool: "TSVD", Pairs: pairs("delta.go:1", "delta.go:2")}); err != nil {
		t.Fatal(err)
	}
	if got := fetchPairs(t, s); len(got) != 201 {
		t.Fatalf("delta fetch returned %d pairs", len(got))
	}
	after := s.WireStats()
	if after.DeltaFetches != 1 {
		t.Fatalf("growth poll was not served as a delta: %+v", after)
	}
	deltaBytes := after.FetchBytes - fullBytes
	if deltaBytes <= 0 || deltaBytes > fullBytes/10 {
		t.Fatalf("delta response cost %d bytes against a %d-byte full snapshot; want O(delta), not O(pairs)",
			deltaBytes, fullBytes)
	}
}

// TestFetchRefetchesOnMisalignedDelta: a delta body applies only on top of
// the mirror it was computed against. A server whose delta names another
// window (since) or another lifetime (epoch) than the client's mirror must
// cost the client its mirror and one full refetch, and the fetch returns
// exactly the server's set.
func TestFetchRefetchesOnMisalignedDelta(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delta SyncState // the delta's epoch, and as Generation the since it echoes
	}{
		{"since", SyncState{Epoch: 0xabc, Generation: 2}},
		{"epoch", SyncState{Epoch: 0xdef, Generation: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex // the server's state: its set and the state that names it
			full := trapfile.File{Tool: "TSVD", Pairs: pairs("a", "b")}
			at := SyncState{Epoch: 0xabc, Generation: 1}
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				defer mu.Unlock()
				body := envelopeOf(full, at)
				if r.URL.Query().Has(SinceParam) { // answered with the delta, misaligned
					body = envelopeOf(trapfile.File{Tool: "TSVD", Pairs: pairs("x", "y")},
						SyncState{Epoch: tc.delta.Epoch, Generation: at.Generation})
					body.Delta, body.Since = true, tc.delta.Generation
				}
				json.NewEncoder(w).Encode(body)
			}))
			defer srv.Close()
			s, _ := newTestClient(srv.URL, HTTPConfig{})
			defer s.Close()

			fetchPairs(t, s) // the mirror: {a,b} at generation 1
			mu.Lock()
			full.Pairs = pairs("a", "b", "c", "d", "x", "y")
			at.Generation = 3
			want := trapfile.Normalize(full)
			mu.Unlock()
			if got, err := s.Fetch(); err != nil || !reflect.DeepEqual(got, want) || s.WireStats().DeltaFetches != 0 {
				t.Fatalf("after a misaligned delta the client holds %+v (%v, %+v), want the server's %+v from a full fetch",
					got, err, s.WireStats(), want)
			}
		})
	}
}

// TestPublishChunksOversizedSets lowers the daemon payload cap and the
// client chunk size and publishes a set whose JSON is many times the cap:
// the publish must succeed via multiple bounded POSTs (the G-Set union makes
// partial merges equivalent), count as ONE logical publish, and land every
// pair.
func TestPublishChunksOversizedSets(t *testing.T) {
	const cap = 2 << 10 // 2 KiB — comfortably below the set's encoding
	m := NewMemory("TSVD", nil)
	srv := httptest.NewServer(NewHandler(m, HandlerOptions{MaxPayloadBytes: cap}))
	defer srv.Close()

	var big []trapfile.Pair
	var bigSites []sites.Tuple
	for i := 0; i < 300; i++ {
		big = append(big, trapfile.Pair{A: fmt.Sprintf("pkg/huge%04d.go:10", i), B: fmt.Sprintf("pkg/huge%04d.go:20", i)})
		bigSites = append(bigSites, sites.Tuple{Loc: big[i].A, Class: "Dictionary", Method: "Set", Write: true})
	}

	// A client with the matching chunk size succeeds.
	s, _ := newTestClient(srv.URL, HTTPConfig{PublishChunkBytes: cap})
	defer s.Close()
	if err := s.Publish(trapfile.File{Tool: "TSVD", Pairs: big, Sites: bigSites}); err != nil {
		t.Fatalf("chunked publish failed: %v", err)
	}
	if f, _ := m.SnapshotState(); len(f.Pairs) != 300 || len(f.Sites) != 300 {
		t.Fatalf("daemon holds %d pairs and %d site rows after chunked publish, want 300 of each", len(f.Pairs), len(f.Sites))
	}
	if tot := s.Totals(); tot.Publishes != 1 {
		t.Fatalf("chunked publish counted as %d logical publishes, want 1", tot.Publishes)
	}

	// A client that chunks above the daemon's cap gets a prompt,
	// non-retryable 413 telling the operator what to fix.
	s2, slept := newTestClient(srv.URL, HTTPConfig{PublishChunkBytes: 1 << 20})
	defer s2.Close()
	err := s2.Publish(trapfile.File{Tool: "TSVD", Pairs: big})
	if err == nil {
		t.Fatal("oversized single-POST publish succeeded against the capped daemon")
	}
	if !strings.Contains(err.Error(), "PublishChunkBytes") {
		t.Fatalf("413 error does not name the knob to fix: %v", err)
	}
	if len(*slept) != 0 {
		t.Fatalf("413 was retried %d times; a payload-cap rejection is permanent", len(*slept))
	}
}

// TestDeltaWindowProperty is the snapshot-delta equivalence property: over a
// randomized merge history (pairs and site rows, with overlaps and no-op
// merges), a client mirror that started at boot and applies the window since
// its own state after every merge equals the daemon's canonical set at every
// generation, and the snapshot at any earlier generation unioned with the
// window since it equals the current snapshot. Inside one epoch no window is
// ever refused: the only full-snapshot fall-backs are a foreign epoch, a
// generation this boot never assigned, and a cursor from before Restore.
func TestDeltaWindowProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(902))
	m := NewMemory("TSVD", nil)

	type recorded struct {
		st SyncState
		f  trapfile.File
	}
	var hist []recorded
	record := func() recorded {
		f, st := m.SnapshotState()
		hist = append(hist, recorded{st: st, f: f})
		return hist[len(hist)-1]
	}
	boot := record() // generation 0, empty
	mirror := newGenLog(boot.st.Epoch, boot.f, boot.st.Generation)

	for step := 0; step < 60; step++ {
		batch := trapfile.File{Tool: "TSVD"}
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			k := rng.Intn(60) // overlapping keys: some merges are partial no-ops
			batch.Pairs = append(batch.Pairs, trapfile.Pair{A: fmt.Sprintf("p%02d.go:1", k), B: fmt.Sprintf("p%02d.go:2", k)})
			if rng.Intn(3) == 0 {
				batch.Sites = append(batch.Sites, sites.Tuple{Loc: fmt.Sprintf("p%02d.go:1", rng.Intn(60)), Class: "Dictionary", Method: "Set", Write: true})
			}
		}
		m.merge(batch)
		cur := record()

		delta, st, ok := m.window(mirror.state())
		if !ok {
			t.Fatalf("step %d: window since %v refused inside one epoch", step, mirror.state())
		}
		mirror.grow(delta, st.Generation)
		got := mirror.snapshot()
		if mirror.state() != cur.st || !reflect.DeepEqual(got, cur.f) {
			t.Fatalf("step %d: mirror at %v holds\n%+v\ndaemon at %v holds\n%+v", step, mirror.state(), got, cur.st, cur.f)
		}
	}

	cur := hist[len(hist)-1]
	for _, rec := range hist {
		delta, st, ok := m.window(rec.st)
		if !ok || st != cur.st {
			t.Fatalf("window since generation %d: delta=%v at %v, want a delta at %v", rec.st.Generation, ok, st, cur.st)
		}
		if union := trapfile.Merge(rec.f, delta); !reflect.DeepEqual(union, cur.f) {
			t.Fatalf("base(g%d) ∪ window =\n%+v\nfull snapshot =\n%+v", rec.st.Generation, union, cur.f)
		}
	}

	for name, since := range map[string]SyncState{
		"a foreign epoch":         {Epoch: cur.st.Epoch + 1, Generation: 0},
		"a generation never seen": {Epoch: cur.st.Epoch, Generation: cur.st.Generation + 1},
	} {
		if f, _, delta := m.window(since); delta || !reflect.DeepEqual(f, cur.f) {
			t.Fatalf("window since %s was not the full snapshot (delta=%v)", name, delta)
		}
	}
	m.Restore(cur.f, cur.st)
	if _, st, delta := m.window(cur.st); delta || st.Generation != cur.st.Generation+1 {
		t.Fatalf("a cursor from before Restore got delta=%v at %v; want the full snapshot one generation on", delta, st)
	}
}
