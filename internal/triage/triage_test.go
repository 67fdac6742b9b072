package triage

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sites"
	"repro/internal/trace"
	"repro/internal/trapfile"
)

func TestSignatureCanonicalOrder(t *testing.T) {
	x := sites.Tuple{Loc: "pkg/b.go:2", Class: "Map", Method: "Load"}
	y := sites.Tuple{Loc: "pkg/a.go:1", Class: "Map", Method: "Store", Write: true}
	s1 := SignatureOf(x, y)
	s2 := SignatureOf(y, x)
	if s1 != s2 {
		t.Fatalf("order-sensitive signature: %+v vs %+v", s1, s2)
	}
	if s1.A.Loc != "pkg/a.go:1" {
		t.Fatalf("A side not canonical: %+v", s1.A)
	}
	if s1.ID() != s2.ID() {
		t.Fatal("IDs diverge for equal signatures")
	}
	other := SignatureOf(x, sites.Tuple{Loc: "pkg/c.go:3"})
	if other.ID() == s1.ID() {
		t.Fatal("distinct signatures share an ID")
	}
}

const stackMain = `goroutine 7 [running]:
repro/internal/core.(*tsvd).OnCall(0xc000100000, 0x1)
	/repo/internal/core/tsvd.go:100 +0x10
repro/internal/workload.(*Env).call(0xc000200000, 0x2)
	/repo/internal/workload/workload.go:174 +0x20
main.run(0xc000300000)
	/repo/cmd/x/main.go:10 +0x30
`

const stackWorker = `goroutine 9 [running]:
repro/internal/core.(*tsvd).OnCall(0xc000100aaa, 0x1)
	/repo/internal/core/tsvd.go:100 +0x10
repro/internal/workload.(*Env).call(0xc000200bbb, 0x2)
	/repo/internal/workload/workload.go:174 +0x20
repro/internal/task.worker(0xc000400000)
	/repo/internal/task/sched.go:55 +0x40
created by repro/internal/task.spawn
	/repo/internal/task/sched.go:40 +0x50
`

func TestWilsonInterval(t *testing.T) {
	low, high := wilson(0, 0)
	if low != 0 || high != 0 {
		t.Fatalf("zero trials: [%v, %v]", low, high)
	}
	low, high = wilson(8, 10)
	// Known value: 8/10 → approximately [0.49, 0.94].
	if math.Abs(low-0.49) > 0.02 || math.Abs(high-0.943) > 0.02 {
		t.Fatalf("wilson(8,10) = [%v, %v]", low, high)
	}
	low, high = wilson(10, 10)
	if high != 1 && high < 0.999 {
		t.Fatalf("wilson(10,10) high = %v", high)
	}
	if low < 0.69 || low > 0.73 {
		t.Fatalf("wilson(10,10) low = %v", low)
	}
}

// fabricated locations and a module trace with one full trap lifecycle on
// the pair (la, lb) plus an unrelated pair that never springs.
func fabTrace(t *testing.T) (trace.ModuleTrace, ids.OpID, ids.OpID) {
	t.Helper()
	la := ids.InternKey("tt/m1/siteA")
	lb := ids.InternKey("tt/m1/siteB")
	lc := ids.InternKey("tt/m1/siteC")
	us := func(n int64) time.Duration { return time.Duration(n) * time.Microsecond }
	mt := trace.ModuleTrace{Module: "m1", Run: 1, Events: []trace.Event{
		{Kind: trace.KindNearMiss, Thread: 1, Obj: 5, OpA: lb, OpB: la, At: us(10), Dur: us(3)},
		{Kind: trace.KindPairAdded, Thread: 1, Obj: 5, OpA: la, OpB: lb, At: us(10)},
		{Kind: trace.KindDelayPlanned, Thread: 2, Obj: 5, OpA: la, At: us(20)},
		{Kind: trace.KindTrapSet, Thread: 2, Obj: 5, OpA: la, At: us(21), Dur: us(500)},
		{Kind: trace.KindTrapSprung, Thread: 3, Obj: 5, OpA: la, OpB: lb, At: us(30)},
		{Kind: trace.KindDelayProductive, Thread: 2, Obj: 5, OpA: la, At: us(40), Dur: us(19)},
		// Unrelated pair: observed together and trap-armed, never springs.
		{Kind: trace.KindNearMiss, Thread: 4, Obj: 9, OpA: lc, OpB: la, At: us(50), Dur: us(2)},
	}}
	return mt, la, lb
}

func TestAddTraceClustersAndExplains(t *testing.T) {
	mt, la, lb := fabTrace(t)
	sites := []trace.SiteRecord{
		{ID: 1, Tuple: sites.Tuple{Loc: la.Key(), Class: "Map", Method: "Store", Write: true}},
		{ID: 2, Tuple: sites.Tuple{Loc: lb.Key(), Class: "Map", Method: "Load"}},
	}
	tri := New()
	tri.AddTrace([]trace.ModuleTrace{mt}, sites, Provenance{Shard: 2, Round: 1, Source: "test"})
	tri.AddTrace([]trace.ModuleTrace{mt}, sites, Provenance{Shard: 3, Round: 2, Source: "test"})

	clusters := tri.Clusters()
	if len(clusters) != 1 {
		t.Fatalf("got %d clusters, want 1 (duplicates must fold)", len(clusters))
	}
	c := clusters[0]
	if c.Firings != 2 {
		t.Fatalf("firings = %d, want 2", c.Firings)
	}
	if c.Sig.A.Class != "Map" || !c.Sig.A.Write {
		t.Fatalf("site metadata not resolved: %+v", c.Sig.A)
	}
	if c.Rank.FiringUnits != 2 || c.Rank.Opportunities != 2 || c.Rank.HitRate != 1 {
		t.Fatalf("rank = %+v", c.Rank)
	}
	if c.First.Shard != 2 || c.Last.Shard != 3 {
		t.Fatalf("provenance span = %+v .. %+v", c.First, c.Last)
	}
	ex := c.Explanation
	if ex == nil {
		t.Fatal("no explanation slice")
	}
	if ex.Object != 5 || ex.TrappedLoc != la.Key() || ex.ConflictingLoc != lb.Key() {
		t.Fatalf("explanation identity: %+v", ex)
	}
	if ex.GrantedDelayUS != 500 || ex.InjectedDelayUS != 19 {
		t.Fatalf("delays: granted %d injected %d", ex.GrantedDelayUS, ex.InjectedDelayUS)
	}
	if ex.HBOrdered {
		t.Fatal("no hb_edge in trace, yet HBOrdered")
	}
	if len(ex.Events) != 6 {
		t.Fatalf("slice has %d events, want 6:\n%+v", len(ex.Events), ex.Events)
	}
	if !strings.Contains(ex.Verdict, "no happens-before") ||
		!strings.Contains(ex.Verdict, "19µs injected delay") {
		t.Fatalf("verdict: %s", ex.Verdict)
	}
}

// TestAllRoutesFoldToOneID: one bug has one id whichever route folded it —
// the collector (with stacks, in either trapped/conflicting role), a trace
// directory's trap_sprung event resolved through its site table, and a
// daemon snapshot's pair resolved through its own.
func TestAllRoutesFoldToOneID(t *testing.T) {
	a := ids.InternKey("tt/run/siteA")
	b := ids.InternKey("tt/run/siteB")
	sideA := report.Side{Thread: 1, Op: a, Write: true, Class: "List", Method: "Add", Stack: stackMain}
	sideB := report.Side{Thread: 2, Op: b, Class: "List", Method: "Get", Stack: stackWorker}
	mkCol := func(trapped, conflicting report.Side) *report.Collector {
		col := report.NewCollector()
		col.Add(report.Violation{Object: 7, Trapped: trapped, Conflicting: conflicting,
			When: 10 * time.Microsecond})
		return col
	}
	tri := New()
	tri.AddRun(mkCol(sideA, sideB), nil, Provenance{Source: "u1"})
	tri.AddRun(mkCol(sideB, sideA), nil, Provenance{Source: "u2"})
	clusters := tri.Clusters()
	if len(clusters) != 1 {
		t.Fatalf("got %d clusters, want 1", len(clusters))
	}
	c := clusters[0]
	if c.Firings != 2 || c.Rank.FiringUnits != 2 {
		t.Fatalf("fold accounting: %+v", c)
	}
	// No traces were ingested: opportunities degrade to firing units.
	if c.Rank.Opportunities != 2 {
		t.Fatalf("opportunities = %d, want 2 (degraded)", c.Rank.Opportunities)
	}

	reg := sites.New()
	reg.Register(a, "List", "Add", true)
	reg.Register(b, "List", "Get", false)

	traced := New()
	traced.AddTrace([]trace.ModuleTrace{{Module: "run", Run: 1, Events: []trace.Event{
		{Kind: trace.KindTrapSprung, Thread: 2, Obj: 7, OpA: a, OpB: b, At: 10 * time.Microsecond},
	}}}, trace.SiteTable(reg), Provenance{Source: "trace"})
	if got := traced.Clusters(); len(got) != 1 || got[0].ID != c.ID {
		t.Errorf("trace route: %+v, the collector route gave id %s", got, c.ID)
	}

	snap := FromTrapFile(trapfile.NewWithSites("TSVD", []report.PairKey{report.KeyOf(a, b)}, reg))
	if len(snap) != 1 || snap[0].ID != c.ID {
		t.Errorf("snapshot route: %+v, the collector route gave id %s", snap, c.ID)
	}
}

func TestOpportunitiesWithoutFirings(t *testing.T) {
	mt, la, _ := fabTrace(t)
	lc := ids.InternKey("tt/m1/siteC")
	tri := New()
	tri.AddTrace([]trace.ModuleTrace{mt}, nil, Provenance{})
	// The (la, lc) pair near-missed with a trap armed at la but never
	// sprang: it must not appear as a cluster, but the armed map must have
	// counted the opportunity.
	for _, c := range tri.Clusters() {
		if c.Sig.pair() == pairLocOf(la.Key(), lc.Key()) {
			t.Fatal("non-firing pair became a cluster")
		}
	}
	tri.mu.Lock()
	got := tri.armed[pairLocOf(la.Key(), lc.Key())]
	tri.mu.Unlock()
	if got != 1 {
		t.Fatalf("armed count = %d, want 1", got)
	}
}

func TestRankingOrder(t *testing.T) {
	mt, _, _ := fabTrace(t)
	flaky := trace.ModuleTrace{Module: "m1", Run: 1, Events: []trace.Event{
		// Same pair arming context but no spring: an unconverted opportunity.
		{Kind: trace.KindNearMiss, Thread: 1, Obj: 5,
			OpA: ids.InternKey("tt/m1/siteA"), OpB: ids.InternKey("tt/m1/siteB"),
			At: 10 * time.Microsecond, Dur: 3 * time.Microsecond},
		{Kind: trace.KindTrapSet, Thread: 2, Obj: 5,
			OpA: ids.InternKey("tt/m1/siteA"), At: 21 * time.Microsecond, Dur: 500 * time.Microsecond},
		// A second pair that fires every unit.
		{Kind: trace.KindTrapSet, Thread: 4, Obj: 8,
			OpA: ids.InternKey("tt/m1/siteD"), At: 30 * time.Microsecond, Dur: 100 * time.Microsecond},
		{Kind: trace.KindTrapSprung, Thread: 5, Obj: 8,
			OpA: ids.InternKey("tt/m1/siteD"), OpB: ids.InternKey("tt/m1/siteE"),
			At: 35 * time.Microsecond},
	}}
	tri := New()
	tri.AddTrace([]trace.ModuleTrace{mt, flaky}, nil, Provenance{})
	tri.AddTrace([]trace.ModuleTrace{flaky}, nil, Provenance{})
	clusters := tri.Clusters()
	if len(clusters) != 2 {
		t.Fatalf("got %d clusters, want 2", len(clusters))
	}
	// siteD/siteE fired 2/2 units; siteA/siteB fired 1/2. The always-firing
	// pair must rank first by Wilson lower bound.
	if clusters[0].Sig.A.Loc != "tt/m1/siteD" {
		t.Fatalf("ranking order wrong: first cluster is %+v (rank %+v), second %+v (rank %+v)",
			clusters[0].Sig, clusters[0].Rank, clusters[1].Sig, clusters[1].Rank)
	}
	if clusters[0].Rank.Low <= clusters[1].Rank.Low {
		t.Fatalf("rank lower bounds not ordered: %v <= %v",
			clusters[0].Rank.Low, clusters[1].Rank.Low)
	}
}

func TestFromTrapFile(t *testing.T) {
	f := trapfile.File{
		Version: trapfile.FormatVersion, Tool: "TSVD",
		Pairs: []trapfile.Pair{{A: "p/x:1", B: "p/y:2"}, {A: "p/y:2", B: "p/x:1"}},
		Sites: []sites.Tuple{{Loc: "p/x:1", Class: "Map", Method: "Store", Write: true}},
	}
	clusters := FromTrapFile(f)
	if len(clusters) != 2 {
		t.Fatalf("got %d clusters, want 2 (one per pair entry)", len(clusters))
	}
	// Both entries are the same unordered pair: identical IDs.
	if clusters[0].ID != clusters[1].ID {
		t.Fatalf("reversed pair got a different ID: %s vs %s", clusters[0].ID, clusters[1].ID)
	}
	if clusters[0].Sig.A.Class != "Map" {
		t.Fatalf("site table not resolved: %+v", clusters[0].Sig.A)
	}
	if clusters[0].Firings != 0 {
		t.Fatal("snapshot view must carry no firings")
	}
}

func TestMetricsAndOutput(t *testing.T) {
	mt, _, _ := fabTrace(t)
	tri := New()
	reg := metrics.NewRegistry()
	tri.RegisterMetrics(reg)
	tri.AddTrace([]trace.ModuleTrace{mt}, nil, Provenance{Source: "out-test"})

	var prom bytes.Buffer
	reg.WritePrometheus(&prom)
	text := prom.String()
	if !strings.Contains(text, "tsvd_triage_clusters_total 1") {
		t.Fatalf("clusters metric missing:\n%s", text)
	}
	if !strings.Contains(text, "tsvd_triage_firings_folded_total 1") {
		t.Fatalf("firings metric missing:\n%s", text)
	}

	clusters := tri.Clusters()
	var j, m bytes.Buffer
	if err := WriteJSON(&j, "TSVD", tri.Units(), clusters); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"id"`, `"site_a"`, `"rank"`, `"explanation"`, `"verdict"`, `"first_seen"`} {
		if !strings.Contains(j.String(), want) {
			t.Fatalf("bugs.json missing %s:\n%s", want, j.String())
		}
	}
	if err := WriteMarkdown(&m, "TSVD", tri.Units(), clusters); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TSVD bug triage", "reproducibility:", "Explanation slice", "no happens-before"} {
		if !strings.Contains(m.String(), want) {
			t.Fatalf("bugs.md missing %q:\n%s", want, m.String())
		}
	}
}

// TestExplanationCountsOnlyOrderingEdges: an hb_edge on exactly the sprung
// pair counts against the firing, but an edge from a location to itself does
// not — the detector never prunes a same-location pair on it, so a firing of
// "one operation racing with itself" must still read as unordered.
func TestExplanationCountsOnlyOrderingEdges(t *testing.T) {
	la := ids.InternKey("tt/hb/siteA")
	lb := ids.InternKey("tt/hb/siteB")
	lifecycle := func(a, b ids.OpID, edge trace.Event) trace.ModuleTrace {
		return trace.ModuleTrace{Module: "hb", Run: 1, Events: []trace.Event{
			{Kind: trace.KindPairAdded, Thread: 1, Obj: 5, OpA: a, OpB: b},
			edge,
			{Kind: trace.KindTrapSet, Thread: 2, Obj: 5, OpA: a, Dur: time.Millisecond},
			{Kind: trace.KindTrapSprung, Thread: 3, Obj: 5, OpA: a, OpB: b},
		}}
	}

	self := explainPair(lifecycle(la, la, trace.Event{Kind: trace.KindHBEdge, Thread: 3, Obj: 5, OpA: la, OpB: la}),
		pairLocOf(la.Key(), la.Key()))
	if self == nil || self.HBOrdered || self.HBEdgesBefore != 0 {
		t.Fatalf("self edge counted as an ordering: %+v", self)
	}
	real := explainPair(lifecycle(la, lb, trace.Event{Kind: trace.KindHBEdge, Thread: 3, Obj: 5, OpA: lb, OpB: la}),
		pairLocOf(la.Key(), lb.Key()))
	if real == nil || !real.HBOrdered || real.HBEdgesBefore != 1 {
		t.Fatalf("edge on the sprung pair not counted: %+v", real)
	}
}

// TestBugsJSONMatchesParent: bugs.json — a traced unit resolved through a
// summary site table, a collector-only unit with one never-interned op, and
// the daemon's pairs-only view of a site-carrying snapshot — is, byte for
// byte, what the commit before sites.Tuple existed wrote for the same inputs
// (testdata/parent/*.json were captured there), less its stack-hash key:
// every trace and snapshot id is that commit's, and the collector-only
// cluster has the id those routes would have given its pair.
func TestBugsJSONMatchesParent(t *testing.T) {
	mt, la, lb := fabTrace(t)
	reg := sites.New()
	reg.Register(la, "Map", "Store", true)
	reg.Register(lb, "Map", "Load", false)

	col := report.NewCollector()
	col.Add(report.Violation{
		Object:      7,
		Trapped:     report.Side{Thread: 1, Op: lb, Write: true, Class: "List", Method: "Add", Stack: stackMain},
		Conflicting: report.Side{Thread: 2, Op: ids.OpID(1 << 40), Class: "List", Method: "Get", Stack: stackWorker},
		When:        10 * time.Microsecond,
	})
	tri := New()
	tri.AddTrace([]trace.ModuleTrace{mt}, trace.SiteTable(reg), Provenance{Shard: 2, Round: 1, Source: "golden"})
	tri.AddRun(col, nil, Provenance{Seed: 7, Mode: "full", Source: "golden"})

	snapshot := trapfile.NewWithSites("TSVD",
		[]report.PairKey{report.KeyOf(la, lb), report.KeyOf(la, ids.InternKey("tt/m1/siteC"))}, reg)

	for name, write := range map[string]func(*bytes.Buffer) error{
		"bugs.json":          func(b *bytes.Buffer) error { return WriteJSON(b, "TSVD", tri.Units(), tri.Clusters()) },
		"bugs_snapshot.json": func(b *bytes.Buffer) error { return WriteJSON(b, "TSVD", 0, FromTrapFile(snapshot)) },
	} {
		var got bytes.Buffer
		if err := write(&got); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "parent", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s:\n%s\nthe parent wrote:\n%s", name, got.Bytes(), want)
		}
	}
}
