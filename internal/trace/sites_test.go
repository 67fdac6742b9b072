package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/sites"
)

// TestJSONLSiteResolution: with a registry attached, v4 events carry the
// site ids of their ops, and the summary's sidecar table resolves each id
// back to the registered (location, class, method, kind) tuple.
func TestJSONLSiteResolution(t *testing.T) {
	a := ids.InternKey("pkg/site.go:1")
	b := ids.InternKey("pkg/site.go:2")
	orphan := ids.InternKey("pkg/site.go:3") // op with no registered site

	reg := sites.New()
	sa := reg.Register(a, "Dictionary", "Add", true)
	sb := reg.Register(b, "Dictionary", "ContainsKey", false)

	mt := ModuleTrace{
		Module: "m1", Run: 1,
		Events: []Event{
			{Kind: KindNearMiss, Thread: 3, Obj: 9, OpA: a, OpB: b,
				At: 5 * time.Microsecond, Dur: 2 * time.Microsecond},
			{Kind: KindTrapSet, Thread: 3, Obj: 9, OpA: orphan,
				At: 9 * time.Microsecond, Dur: time.Microsecond},
		},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, mt, reg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d", len(lines))
	}

	var first, second JSONEvent
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if first.SiteA != uint64(sa) || first.SiteB != uint64(sb) {
		t.Fatalf("near_miss sites = (%d, %d), want (%d, %d)",
			first.SiteA, first.SiteB, sa, sb)
	}
	// Unregistered ops serialize with no site reference, not a bogus one.
	if second.SiteA != 0 || second.SiteB != 0 {
		t.Fatalf("orphan op carried site ids (%d, %d)", second.SiteA, second.SiteB)
	}
	// The stream still validates.
	if _, err := ReadJSONL(strings.NewReader(buf.String())); err != nil {
		t.Fatalf("resolved stream rejected: %v", err)
	}

	// Every site id an event references resolves through the sidecar table
	// to the tuple that was registered.
	table := SiteTable(reg)
	byID := map[uint64]SiteRecord{}
	for _, r := range table {
		byID[r.ID] = r
	}
	ra, ok := byID[first.SiteA]
	if !ok {
		t.Fatalf("site %d not in sidecar table %v", first.SiteA, table)
	}
	if ra.Loc != a.Key() || ra.Class != "Dictionary" || ra.Method != "Add" || !ra.Write {
		t.Fatalf("site %d resolved to %+v", first.SiteA, ra)
	}
	rb := byID[first.SiteB]
	if rb.Loc != b.Key() || rb.Class != "Dictionary" || rb.Method != "ContainsKey" || rb.Write {
		t.Fatalf("site %d resolved to %+v", first.SiteB, rb)
	}
}

// TestSiteTableOrderAndNil: the sidecar table lists sites in id order (so
// diffs are stable), a nil registry yields a nil table, which the summary
// omits entirely, and the summary.json carrying the table is, byte for byte,
// testdata/parent/summary.json, and reads back. The file was captured at the
// commit before sites.Tuple existed; schema v6 changed only its version and
// its counter block, and its site rows are still the bytes written there.
func TestSiteTableOrderAndNil(t *testing.T) {
	if got := SiteTable(nil); got != nil {
		t.Fatalf("SiteTable(nil) = %v", got)
	}

	reg := sites.New()
	a, b := ids.InternKey("pkg/golden.go:10"), ids.InternKey("pkg/golden.go:20")
	reg.Register(b, "List", "Add", true)
	reg.Register(a, "Dictionary", "ContainsKey", false)
	reg.Register(a, "Dictionary", "Set", true)
	reg.ForOpKind(b, false) // anonymous site
	table := SiteTable(reg)
	ops := []ids.OpID{b, a, a, b}
	if len(table) != len(ops) {
		t.Fatalf("table has %d rows, want %d", len(table), len(ops))
	}
	for i, r := range table {
		if r.ID != uint64(i+1) {
			t.Fatalf("row %d has id %d — not registration order", i, r.ID)
		}
		if r.Loc != ops[i].Key() {
			t.Fatalf("row %d loc = %q, want %q", i, r.Loc, ops[i].Key())
		}
	}

	s := &Summary{
		Version: SchemaVersion, Tool: "TSVD", Modules: 2, Runs: 1,
		Emitted: 3, Drained: 3,
		ByKind:   map[string]int64{"near_miss": 2, "pair_added": 1},
		Expected: map[string]int64{"near_miss": 2, "pair_added": 1},
		Sites:    table,
	}
	var buf bytes.Buffer
	if err := s.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "parent", "summary.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("summary.json:\n%s\nthe parent wrote:\n%s", buf.Bytes(), want)
	}
	got, err := ReadSummary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Sites, table) {
		t.Fatalf("summary round trip lost sites: %+v", got.Sites)
	}
}
