package trapstore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
	"repro/internal/trapfile"
)

func pairs(keys ...string) []trapfile.Pair {
	var out []trapfile.Pair
	for i := 0; i+1 < len(keys); i += 2 {
		out = append(out, trapfile.Pair{A: keys[i], B: keys[i+1]})
	}
	return out
}

func fetchPairs(t *testing.T, s TrapStore) []trapfile.Pair {
	t.Helper()
	f, err := s.Fetch()
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	return f.Pairs
}

func TestFileStorePublishMerges(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traps.json")
	s := NewFileStore(path, nil)

	if got := fetchPairs(t, s); len(got) != 0 {
		t.Fatalf("fresh store not empty: %v", got)
	}
	if err := s.Publish(trapfile.File{Tool: "TSVD", Pairs: pairs("a", "b")}); err != nil {
		t.Fatal(err)
	}
	// A second publish unions with what is already on disk.
	if err := s.Publish(trapfile.File{Tool: "TSVD", Pairs: pairs("c", "d", "a", "b")}); err != nil {
		t.Fatal(err)
	}
	got := fetchPairs(t, s)
	if len(got) != 2 || got[0] != (trapfile.Pair{A: "a", B: "b"}) || got[1] != (trapfile.Pair{A: "c", B: "d"}) {
		t.Fatalf("merged file = %v", got)
	}
	tot := s.Totals()
	if tot.Publishes != 2 || tot.Fetches != 2 || tot.Fallbacks != 0 {
		t.Fatalf("totals = %+v", tot)
	}
}

func TestFileStoreRefusesCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traps.json")
	os.WriteFile(path, []byte("not json"), 0o644)
	s := NewFileStore(path, nil)
	if _, err := s.Fetch(); !errors.Is(err, trapfile.ErrCorrupt) {
		t.Fatalf("Fetch over corrupt file = %v, want ErrCorrupt", err)
	}
	if err := s.Publish(trapfile.File{Pairs: pairs("a", "b")}); !errors.Is(err, trapfile.ErrCorrupt) {
		t.Fatalf("Publish over corrupt file = %v, want ErrCorrupt", err)
	}
	// The corrupt file was not clobbered: the evidence survives.
	data, _ := os.ReadFile(path)
	if string(data) != "not json" {
		t.Fatalf("corrupt file overwritten with %q", data)
	}
}

func TestMemoryGenerationMovesOnlyOnGrowth(t *testing.T) {
	m := NewMemory("TSVD", nil)
	gen0 := m.Status().Generation
	if gen0 != 0 {
		t.Fatalf("fresh generation = %d", gen0)
	}
	m.Publish(trapfile.File{Pairs: pairs("a", "b")})
	gen1 := m.Status().Generation
	if gen1 != gen0+1 {
		t.Fatalf("generation after growth = %d, want %d", gen1, gen0+1)
	}
	// Re-publishing the same pair must not move the generation: idle
	// shards poll by generation and a spurious bump costs them a body.
	m.Publish(trapfile.File{Pairs: pairs("a", "b", "b", "a")})
	gen2 := m.Status().Generation
	if gen2 != gen1 {
		t.Fatalf("generation moved without growth: %d -> %d", gen1, gen2)
	}
}

// brokenStore fails every operation with a fixed error.
type brokenStore struct{ err error }

func (b brokenStore) Fetch() (trapfile.File, error) { return trapfile.File{}, b.err }
func (b brokenStore) Publish(trapfile.File) error   { return b.err }
func (b brokenStore) Totals() trace.StoreTotals     { return trace.StoreTotals{} }
func (b brokenStore) Close() error                  { return nil }

func TestFallbackDegradesOnUnavailable(t *testing.T) {
	dir := t.TempDir()
	local := NewFileStore(filepath.Join(dir, "local.json"), nil)
	down := brokenStore{err: ErrUnavailable}
	s := NewFallback(down, local, nil)

	// Publish: the local copy absorbs everything even though the primary
	// is down, and the operation reports success.
	if err := s.Publish(trapfile.File{Tool: "TSVD", Pairs: pairs("a", "b", "c", "d")}); err != nil {
		t.Fatalf("degraded publish failed: %v", err)
	}
	got := fetchPairs(t, s)
	if len(got) != 2 {
		t.Fatalf("degraded fetch lost pairs: %v", got)
	}
	tot := s.Totals()
	if tot.Fallbacks != 2 { // one per degraded operation
		t.Fatalf("fallbacks = %d, want 2 (%+v)", tot.Fallbacks, tot)
	}
}

func TestFallbackPropagatesDataErrors(t *testing.T) {
	dir := t.TempDir()
	local := NewFileStore(filepath.Join(dir, "local.json"), nil)
	bad := brokenStore{err: trapfile.ErrCorrupt}
	s := NewFallback(bad, local, nil)
	if err := s.Publish(trapfile.File{Pairs: pairs("a", "b")}); !errors.Is(err, trapfile.ErrCorrupt) {
		t.Fatalf("data error degraded instead of propagating: %v", err)
	}
	if _, err := s.Fetch(); !errors.Is(err, trapfile.ErrCorrupt) {
		t.Fatalf("fetch data error degraded instead of propagating: %v", err)
	}
}

func TestFallbackMergesBothSidesWhenHealthy(t *testing.T) {
	dir := t.TempDir()
	local := NewFileStore(filepath.Join(dir, "local.json"), nil)
	remote := NewMemory("TSVD", nil)
	local.Publish(trapfile.File{Pairs: pairs("l1", "l2")})
	remote.Publish(trapfile.File{Pairs: pairs("r1", "r2")})

	s := NewFallback(remote, local, nil)
	got := fetchPairs(t, s)
	if len(got) != 2 {
		t.Fatalf("healthy fetch did not union local+remote: %v", got)
	}
}

func TestStoreEventsMirrorTotals(t *testing.T) {
	tr := trace.New(1 << 10)
	local := NewFileStore(filepath.Join(t.TempDir(), "local.json"), tr)
	down := brokenStore{err: ErrUnavailable}
	s := NewFallback(down, local, tr)

	s.Publish(trapfile.File{Pairs: pairs("a", "b")})
	s.Fetch()

	counts := map[trace.Kind]int64{}
	for _, e := range tr.Drain() {
		counts[e.Kind]++
	}
	tot := s.Totals()
	if counts[trace.KindStoreFetch] != tot.Fetches ||
		counts[trace.KindStorePublish] != tot.Publishes ||
		counts[trace.KindStoreFallback] != tot.Fallbacks {
		t.Fatalf("events %v do not mirror totals %+v", counts, tot)
	}
	if tot.Fetches == 0 || tot.Publishes == 0 || tot.Fallbacks == 0 {
		t.Fatalf("expected all three operation types, got %+v", tot)
	}
}
