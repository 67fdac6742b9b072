package trapfile

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ids"
	"repro/internal/report"
	"repro/internal/sites"
)

// TestNewWithSitesSerializesTuples: the site table a file carries is the
// registry's tuple set — no process-local ids, canonical order, anonymous
// (op-only) sites included — and the saved file is, byte for byte, what the
// commit before sites.Tuple existed wrote for the same registry
// (testdata/parent/with_sites.json was captured there).
func TestNewWithSitesSerializesTuples(t *testing.T) {
	a := ids.InternKey("pkg/golden.go:10")
	b := ids.InternKey("pkg/golden.go:20")
	reg := sites.New()
	reg.Register(b, "List", "Add", true) // registered first; table sorts by tuple
	reg.Register(a, "Dictionary", "ContainsKey", false)
	reg.Register(a, "Dictionary", "Set", true)
	reg.Register(b, "", "", false) // anonymous read site for the same op

	pairs := []report.PairKey{report.KeyOf(b, a), report.KeyOf(b, b)}
	path := filepath.Join(t.TempDir(), "traps.json")
	if err := Save(path, NewWithSites("TSVD", pairs, reg)); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "parent", "with_sites.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trap file:\n%s\nthe parent wrote:\n%s", got, want)
	}

	// Nil registry: pairs-only file, like older builds wrote.
	if f := NewWithSites("TSVD", pairs, nil); f.Sites != nil {
		t.Fatalf("nil registry produced a site table: %+v", f.Sites)
	}
}

// TestLoadSeedRegistersSites: loading a seed file re-interns its site table
// into the next process's registry, so run-2 reports resolve API metadata
// before the instrumented site ever executes.
func TestLoadSeedRegistersSites(t *testing.T) {
	a := ids.InternKey("pkg/seed2.go:1")
	b := ids.InternKey("pkg/seed2.go:2")
	run1 := sites.New()
	run1.Register(a, "Queue", "Enqueue", true)
	run1.Register(b, "Queue", "Dequeue", true)

	path := filepath.Join(t.TempDir(), "traps.json")
	if err := Save(path, NewWithSites("TSVD", []report.PairKey{report.KeyOf(a, b)}, run1)); err != nil {
		t.Fatal(err)
	}

	run2 := sites.New()
	pairs, err := LoadSeed(path, run2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0] != report.KeyOf(a, b) {
		t.Fatalf("pairs = %+v", pairs)
	}
	if run2.Len() != 2 {
		t.Fatalf("run-2 registry has %d sites, want 2", run2.Len())
	}
	if s, _ := run2.SiteForOp(a); s.Class != "Queue" || s.Method != "Enqueue" || !s.Write {
		t.Fatalf("seeded site resolved to %+v", s)
	}

	// A nil registry still loads the pairs (legacy callers).
	pairs, err = LoadSeed(path, nil)
	if err != nil || len(pairs) != 1 {
		t.Fatalf("nil-registry LoadSeed: %v, %v", pairs, err)
	}
}

// TestMergeUnionsSiteTables: merging a legacy file (no site table) with a
// site-carrying file keeps the table; merging two tables unions and dedups
// them; and the result is order-independent, matching Merge's convergence
// contract for pairs.
func TestMergeUnionsSiteTables(t *testing.T) {
	a := ids.InternKey("pkg/merge.go:1")
	b := ids.InternKey("pkg/merge.go:2")
	regA := sites.New()
	regA.Register(a, "Dictionary", "Add", true)
	regB := sites.New()
	regB.Register(b, "List", "Remove", true)
	regB.Register(a, "Dictionary", "Add", true) // shared tuple

	fileA := NewWithSites("TSVD", []report.PairKey{report.KeyOf(a, a)}, regA)
	fileB := NewWithSites("TSVD", []report.PairKey{report.KeyOf(a, b)}, regB)
	legacy := New("TSVD", []report.PairKey{report.KeyOf(b, b)}) // no site table

	ab := Merge(fileA, fileB)
	if len(ab.Sites) != 2 {
		t.Fatalf("union has %d sites, want 2 (dedup): %+v", len(ab.Sites), ab.Sites)
	}
	ba := Merge(fileB, fileA)
	if len(ba.Sites) != len(ab.Sites) {
		t.Fatalf("merge not symmetric: %d vs %d sites", len(ba.Sites), len(ab.Sites))
	}
	for i := range ab.Sites {
		if ab.Sites[i] != ba.Sites[i] {
			t.Fatalf("merge order changed the table: %+v vs %+v", ab.Sites, ba.Sites)
		}
	}

	withLegacy := Merge(legacy, ab)
	if len(withLegacy.Sites) != 2 || len(withLegacy.Pairs) != 3 {
		t.Fatalf("legacy merge lost data: %+v", withLegacy)
	}
	// And the other direction: a legacy file absorbing a site-carrying one.
	if got := Merge(ab, legacy); len(got.Sites) != 2 {
		t.Fatalf("site table dropped when newer file is legacy: %+v", got)
	}
}

// TestSaveNormalizesSiteTable: malformed tables (duplicates, rows without a
// location) are canonicalized on save and on load, so on-disk bytes are
// deterministic regardless of producer sloppiness.
func TestSaveNormalizesSiteTable(t *testing.T) {
	f := File{
		Version: FormatVersion,
		Tool:    "TSVD",
		Pairs:   []Pair{{A: "x.go:1", B: "x.go:2"}},
		Sites: []sites.Tuple{
			{Loc: "x.go:2", Class: "List", Method: "Add", Write: true},
			{Loc: "", Class: "Ghost", Method: "NoLoc"}, // dropped
			{Loc: "x.go:1", Class: "Dictionary", Method: "Add"},
			{Loc: "x.go:2", Class: "List", Method: "Add", Write: true}, // dup
		},
	}
	path := filepath.Join(t.TempDir(), "traps.json")
	if err := Save(path, f); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sites) != 2 {
		t.Fatalf("normalized table has %d rows, want 2: %+v", len(got.Sites), got.Sites)
	}
	if got.Sites[0].Loc != "x.go:1" || got.Sites[1].Loc != "x.go:2" {
		t.Fatalf("table not sorted: %+v", got.Sites)
	}
}
