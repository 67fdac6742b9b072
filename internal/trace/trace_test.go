package trace

import (
	"bytes"
	"maps"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ids"
)

func TestKindStringRoundTrip(t *testing.T) {
	for k := KindUnknown + 1; k < numKinds; k++ {
		got, ok := KindFromString(k.String())
		if !ok || got != k {
			t.Fatalf("KindFromString(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := KindFromString("unknown"); ok {
		t.Fatal("\"unknown\" must not parse as a valid kind")
	}
	if _, ok := KindFromString("no_such_kind"); ok {
		t.Fatal("invalid name parsed")
	}
	if Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kind must stringify as unknown")
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(KindNearMiss, 1, 2, 3, 4, time.Second, time.Millisecond)
	if ev := tr.Drain(); ev != nil {
		t.Fatalf("nil Drain = %v", ev)
	}
	if tot := tr.Totals(); tot != (Totals{}) {
		t.Fatalf("nil Totals = %+v", tot)
	}
	if c := tr.Capacity(); c != 0 {
		t.Fatalf("nil Capacity = %d", c)
	}
}

func TestEmitDrainOrdering(t *testing.T) {
	tr := New(1024)
	// Emit from many "threads" with strictly increasing timestamps; Drain
	// must return them sorted by At regardless of stripe layout.
	const n = 500
	for i := 0; i < n; i++ {
		tr.Emit(KindNearMiss, ids.ThreadID(i%7), 1, ids.OpID(i+1), 1,
			time.Duration(i)*time.Microsecond, 0)
	}
	ev := tr.Drain()
	if len(ev) != n {
		t.Fatalf("drained %d events, want %d", len(ev), n)
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].At < ev[i-1].At {
			t.Fatalf("events out of order at %d: %v after %v", i, ev[i].At, ev[i-1].At)
		}
	}
	if got := tr.Drain(); len(got) != 0 {
		t.Fatalf("second Drain returned %d events", len(got))
	}
	tot := tr.Totals()
	if tot.Emitted != n || tot.Dropped != 0 || tot.Buffered != 0 {
		t.Fatalf("totals after drain: %+v", tot)
	}
}

func TestRingOverflowDropsOldestAndCounts(t *testing.T) {
	tr := New(1) // clamped up to one slot per stripe
	capacity := tr.Capacity()
	// Hammer a single thread so exactly one stripe fills: its ring holds one
	// event, everything older is dropped.
	const n = 100
	for i := 0; i < n; i++ {
		tr.Emit(KindDelayInjected, 1, 1, ids.OpID(i+1), 0, time.Duration(i), 0)
	}
	tot := tr.Totals()
	if tot.Emitted != n {
		t.Fatalf("emitted = %d, want %d", tot.Emitted, n)
	}
	if tot.Buffered != 1 {
		t.Fatalf("buffered = %d, want 1 (single-slot ring)", tot.Buffered)
	}
	if tot.Dropped != n-1 {
		t.Fatalf("dropped = %d, want %d", tot.Dropped, n-1)
	}
	ev := tr.Drain()
	if len(ev) != 1 || ev[0].OpA != ids.OpID(n) {
		t.Fatalf("survivor = %+v, want the newest event (op %d)", ev, n)
	}
	if capacity < 1 {
		t.Fatalf("capacity = %d", capacity)
	}
}

// TestConcurrentEmitDrainAccounting is the stress test for the exactness
// invariant: N goroutines emit through the tracer while a drainer loops
// concurrently; at quiescence emitted == drained + dropped.
func TestConcurrentEmitDrainAccounting(t *testing.T) {
	tr := New(64) // tiny buffer: force heavy overflow under contention
	const (
		goroutines = 8
		perG       = 5000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var drained int64
	var drainWG sync.WaitGroup
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		for {
			drained += int64(len(tr.Drain()))
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr.Emit(KindNearMiss, ids.ThreadID(g+1), ids.ObjectID(i),
					ids.OpID(i+1), ids.OpID(i+2), time.Duration(i), time.Duration(g))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	drainWG.Wait()
	drained += int64(len(tr.Drain())) // final sweep after all emitters stopped

	tot := tr.Totals()
	if tot.Emitted != goroutines*perG {
		t.Fatalf("emitted = %d, want %d", tot.Emitted, goroutines*perG)
	}
	if tot.Buffered != 0 {
		t.Fatalf("buffered = %d after final drain", tot.Buffered)
	}
	if drained+tot.Dropped != tot.Emitted {
		t.Fatalf("accounting broken: drained %d + dropped %d != emitted %d",
			drained, tot.Dropped, tot.Emitted)
	}
	if tot.Dropped == 0 {
		t.Log("no drops despite tiny buffer; accounting still exact")
	}
}

func TestJSONLRoundTripAndValidate(t *testing.T) {
	a := ids.InternKey("pkg/t.go:1")
	b := ids.InternKey("pkg/t.go:2")
	mt := ModuleTrace{
		Module: "m1", Run: 2,
		Events: []Event{
			{Kind: KindNearMiss, Thread: 3, Obj: 9, OpA: a, OpB: b,
				At: 5 * time.Microsecond, Dur: 2 * time.Microsecond},
			{Kind: KindDelayInjected, Thread: 3, Obj: 9, OpA: a,
				At: 9 * time.Microsecond, Dur: 100 * time.Microsecond},
		},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, mt, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if n := strings.Count(out, "\n"); n != 2 {
		t.Fatalf("want 2 lines, got %d:\n%s", n, out)
	}
	if !strings.Contains(out, `"ev":"near_miss"`) || !strings.Contains(out, `"loc_a":"pkg/t.go:1"`) {
		t.Fatalf("missing fields:\n%s", out)
	}
	jes, err := ReadJSONL(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(jes) != 2 || jes[0].Ev != "near_miss" || jes[1].Ev != "delay_injected" {
		t.Fatalf("read back %+v", jes)
	}
}

func TestValidateJSONLRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad json":          "{nope\n",
		"wrong version":     `{"v":9,"ev":"near_miss","i":1,"t_us":1,"op_a":1,"op_b":2}` + "\n",
		"unknown kind":      `{"v":6,"ev":"bogus","i":1,"t_us":1,"op_a":1}` + "\n",
		"negative time":     `{"v":6,"ev":"trap_set","i":1,"t_us":-1,"op_a":1}` + "\n",
		"negative duration": `{"v":6,"ev":"trap_set","i":1,"t_us":1,"dur_us":-5,"op_a":1}` + "\n",
		"missing op_a":      `{"v":6,"ev":"trap_set","i":1,"t_us":1}` + "\n",
		"pair without op_b": `{"v":6,"ev":"near_miss","i":1,"t_us":1,"op_a":1}` + "\n",
		"missing index":     `{"v":6,"ev":"trap_set","t_us":1,"op_a":1}` + "\n",
		"index not increasing": `{"v":6,"ev":"trap_set","i":2,"t_us":1,"op_a":1}` + "\n" +
			`{"v":6,"ev":"trap_set","i":2,"t_us":2,"op_a":1}` + "\n",
	}
	for name, line := range cases {
		if _, err := ReadJSONL(strings.NewReader(line)); err == nil {
			t.Errorf("%s: accepted %q", name, line)
		}
	}
	// Blank lines are tolerated (files are concatenated in the harness).
	good := `{"v":6,"ev":"trap_set","i":1,"t_us":1,"op_a":7}` + "\n\n"
	if _, err := ReadJSONL(strings.NewReader(good)); err != nil {
		t.Fatalf("blank line rejected: %v", err)
	}
}

// events returns n wire events of each kind in counts.
func events(counts map[string]int64) []JSONEvent {
	var out []JSONEvent
	for kind, n := range counts {
		for range n {
			out = append(out, JSONEvent{Ev: kind})
		}
	}
	return out
}

// TestReconcile: Summary.Check holds the events to the counts the summary
// expects from its counters, and to zero dropped events.
func TestReconcile(t *testing.T) {
	counts := map[string]int64{
		"trap_set": 2, "delay_injected": 2, "near_miss": 5,
		"pair_added": 3, "pair_pruned_hb": 1, "trap_sprung": 1, "hb_edge": 4,
	}
	jes := events(counts)
	s := Summary{Drained: int64(len(jes)), ByKind: counts, Expected: map[string]int64{
		"trap_set": 2, "delay_injected": 2, "near_miss": 5,
		"pair_added": 3, "pair_pruned_hb": 1, "pair_pruned_decay": 0, "trap_sprung": 1,
	}}
	if _, err := s.Check(jes); err != nil {
		t.Fatalf("exact counts rejected: %v", err)
	}
	dropped := s
	dropped.Dropped = 3
	if _, err := dropped.Check(jes); err == nil {
		t.Fatal("dropped events accepted")
	}
	bad := s
	bad.Expected = maps.Clone(s.Expected)
	bad.Expected["near_miss"] = 6
	if _, err := bad.Check(jes); err == nil || !strings.Contains(err.Error(), "near_miss events = 5, counters say 6") {
		t.Fatalf("diverging counter: %v", err)
	}
}

func TestSummaryRoundTrip(t *testing.T) {
	s := &Summary{
		Version: SchemaVersion, Tool: "tsvd", Modules: 5, Runs: 2,
		Emitted: 10, Drained: 10,
		ByKind:   map[string]int64{"near_miss": 10},
		Expected: map[string]int64{"near_miss": 10},
	}
	var buf bytes.Buffer
	if err := s.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSummary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != "tsvd" || got.Drained != 10 || got.ByKind["near_miss"] != 10 || got.Expected["near_miss"] != 10 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if _, err := ReadSummary(strings.NewReader(`{"version": 42}`)); err == nil {
		t.Fatal("wrong summary version accepted")
	}
}

func TestAggregate(t *testing.T) {
	a := ids.InternKey("pkg/agg.go:1")
	b := ids.InternKey("pkg/agg.go:2")
	mods := []ModuleTrace{{
		Module: "m", Run: 1, Dropped: 0,
		Events: []Event{
			{Kind: KindNearMiss, OpA: a, OpB: b, Dur: 10 * time.Microsecond},
			{Kind: KindNearMiss, OpA: a, OpB: b, Dur: 30 * time.Microsecond},
			{Kind: KindNearMiss, OpA: a, OpB: a, Dur: 20 * time.Microsecond}, // same-location
			{Kind: KindDelayPlanned, OpA: a, Dur: time.Millisecond},
			{Kind: KindTrapSet, OpA: a, Dur: time.Millisecond},
			{Kind: KindDelayInjected, OpA: a, Dur: time.Millisecond},
			{Kind: KindDelayProductive, OpA: a, Dur: time.Millisecond},
			{Kind: KindTrapSprung, OpA: a, OpB: b},
			{Kind: KindPairAdded, OpA: a, OpB: b},
			{Kind: KindHBEdge, OpA: a, OpB: b},
			{Kind: KindPairPrunedHB, OpA: a, OpB: b},
			{Kind: KindPairPrunedDecay, OpA: a, OpB: b},
		},
	}}
	m := Aggregate(mods)
	if m.Events != 12 || m.Dropped != 0 {
		t.Fatalf("totals: %+v", m)
	}
	la, lb := m.PerLoc[a], m.PerLoc[b]
	if la == nil || lb == nil {
		t.Fatal("locations missing from aggregate")
	}
	// a sees all 3 near misses (the same-location one once); b sees 2.
	if la.NearMisses != 3 || lb.NearMisses != 2 {
		t.Fatalf("near misses: a=%d b=%d", la.NearMisses, lb.NearMisses)
	}
	if la.MinGap != 10*time.Microsecond || la.MaxGap != 30*time.Microsecond {
		t.Fatalf("gap range: [%v, %v]", la.MinGap, la.MaxGap)
	}
	if la.AvgGap() != 20*time.Microsecond {
		t.Fatalf("avg gap = %v", la.AvgGap())
	}
	if la.DelaysPlanned != 1 || la.TrapsSet != 1 || la.DelaysInjected != 1 ||
		la.DelaysProductive != 1 || la.TotalDelay != time.Millisecond {
		t.Fatalf("delay lifecycle: %+v", la)
	}
	if lb.DelaysPlanned != 0 || lb.DelaysInjected != 0 {
		t.Fatalf("delay events leaked to partner: %+v", lb)
	}
	for _, lm := range []*LocMetrics{la, lb} {
		if lm.PairsAdded != 1 || lm.PrunedHB != 1 || lm.PrunedDecay != 1 ||
			lm.HBEdges != 1 || lm.TrapsSprung != 1 {
			t.Fatalf("pair churn not attributed to both endpoints: %+v", lm)
		}
	}
	// Sorted: a (3 near misses) before b (2).
	rows := m.Sorted()
	if len(rows) != 2 || rows[0].Op != a {
		t.Fatalf("sort order: %v", rows)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"per_location"`) {
		t.Fatalf("metrics JSON missing table:\n%s", buf.String())
	}
}

func TestCountByKind(t *testing.T) {
	mods := []ModuleTrace{
		{Events: []Event{{Kind: KindNearMiss}, {Kind: KindNearMiss}}},
		{Events: []Event{{Kind: KindTrapSet}}},
	}
	got := CountByKind(mods)
	if got["near_miss"] != 2 || got["trap_set"] != 1 {
		t.Fatalf("CountByKind = %v", got)
	}
}

// BenchmarkEmit pins the zero-allocation contract of the emission path.
func BenchmarkEmit(b *testing.B) {
	tr := New(DefaultBufferSize)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			tr.Emit(KindNearMiss, ids.ThreadID(i%8), 1, 2, 3,
				time.Duration(i), time.Microsecond)
		}
	})
}

// TestReconcileStoreTotals: a store's totals join a summary's expected
// counts as its store_* events.
func TestReconcileStoreTotals(t *testing.T) {
	counts := map[string]int64{
		"store_fetch": 4, "store_publish": 2, "store_fallback": 1,
	}
	jes := events(counts)
	expect := func(st StoreTotals) *Summary {
		s := &Summary{Drained: int64(len(jes)), Expected: map[string]int64{}}
		st.Expect(s.Expected)
		return s
	}
	store := StoreTotals{Fetches: 4, Publishes: 2, Fallbacks: 1}
	if s := expect(store); !maps.Equal(s.Expected, counts) {
		t.Fatalf("Expect wrote %v, want %v", s.Expected, counts)
	}
	if _, err := expect(store).Check(jes); err != nil {
		t.Fatalf("exact store counts rejected: %v", err)
	}
	bad := store
	bad.Fallbacks = 0
	if _, err := expect(bad).Check(jes); err == nil {
		t.Fatal("diverging store counter accepted")
	}
}

func TestValidateJSONLStoreKinds(t *testing.T) {
	lines := `{"v":6,"ev":"store_fetch","i":1,"t_us":1,"op_a":7,"loc_a":"trapstore:http://x"}
{"v":6,"ev":"store_publish","i":2,"t_us":2,"op_a":7}
{"v":6,"ev":"store_fallback","i":3,"t_us":3,"op_a":7}
`
	jes, err := ReadJSONL(strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	if len(jes) != 3 || jes[0].Ev != "store_fetch" || jes[1].Ev != "store_publish" || jes[2].Ev != "store_fallback" {
		t.Fatalf("read back %+v", jes)
	}
}
