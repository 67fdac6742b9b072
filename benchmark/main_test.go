package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},             // root
		{ID: 2, Parent: 1, Start: 10, End: 40},  // sibling children …
		{ID: 3, Parent: 1, Start: 50, End: 70},  // … that do not touch
		{ID: 4, Parent: 2, Start: 15, End: 25},  // nested
		{ID: 5, Parent: 1, Start: 60, End: 90},  // overlaps span 3
		{ID: 6, Parent: 1, Start: 95, End: 130}, // sticks out of the parent
		{ID: 7, Parent: 3, Start: 50, End: 70},  // covers its parent entirely
	}
	selfTimes(spans)
	want := map[int]int64{
		1: 100 - (30 + 40 + 5), // [10,40] ∪ [50,90] ∪ [95,100]
		2: 30 - 10,
		3: 0,
		4: 10,
		5: 30,
		6: 35,
		7: 20,
	}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d: self %d, want %d", s.ID, s.Self, want[s.ID])
		}
	}
}

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 0}, {39, 0}, {40, 0.75}, {99, 0.75}, {100, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		q, ok := tailQuantile(c.n)
		if ok != (c.want != 0) || q != c.want {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v", c.n, q, ok, c.want)
		}
		if ok && math.Round(float64(c.n)*(1-q)) < 10 {
			t.Errorf("tailQuantile(%d) = %v leaves fewer than ten samples beyond it", c.n, q)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := percentile(xs, 0.95); got != 0 {
		t.Errorf("percentile of 100 samples at p95 = %v, want 0 (only five samples beyond)", got)
	}
	if got := percentile(xs, 0.9); got < 88 || got > 90 {
		t.Errorf("percentile of 0..99 at p90 = %v", got)
	}
	if s := summarize(xs[:9]); s.tailQ != 0 || s.min != 0 || s.max != 8 || s.p50 != 4 {
		t.Errorf("summarize of nine samples = %+v", s)
	}
}

// suiteShape is what identifies a generated suite: its modules in order,
// with their tests and planted pairs.
func suiteShape(t *testing.T, seed int64, scale float64) []string {
	t.Helper()
	suite, err := genSuite(seed, scale)
	if err != nil {
		t.Fatal(err)
	}
	var shape []string
	for _, m := range suite.Modules {
		s := m.Name
		for _, test := range m.Tests {
			s += "/" + test.Name
		}
		for _, b := range m.Bugs {
			s += "+" + b.Pair.A.Key() + "|" + b.Pair.B.Key()
		}
		shape = append(shape, s)
	}
	return shape
}

func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	for _, kind := range []callKind{hotCalls, sharedReads, sampledCalls} {
		a, b, c := genStream(kind, 7, 1), genStream(kind, 7, 1), genStream(kind, 8, 1)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: the same seed gave two different streams", kind)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%v: different seeds gave the same stream", kind)
		}
		if reflect.DeepEqual(a, genStream(kind, 7, 0)) {
			t.Errorf("%v: two workers got the same stream", kind)
		}
	}
	f1, f2, f3 := genFleet(7, 1, 2, 5, 64), genFleet(7, 1, 2, 5, 64), genFleet(8, 1, 2, 5, 64)
	if !reflect.DeepEqual(f1, f2) {
		t.Error("genFleet: the same seed gave different inputs")
	}
	if reflect.DeepEqual(f1.publish, f3.publish) {
		t.Error("genFleet: different seeds gave the same inputs")
	}
	if want := 64 + 2*5*publishNew; len(f1.expected) != want {
		t.Errorf("genFleet expects %d pairs, want %d", len(f1.expected), want)
	}
	s1, s2, s3 := suiteShape(t, 7, 0.1), suiteShape(t, 7, 0.1), suiteShape(t, 8, 0.1)
	if !reflect.DeepEqual(s1, s2) {
		t.Error("genSuite: the same seed gave different suites")
	}
	if reflect.DeepEqual(s1, s3) {
		t.Error("genSuite: different seeds gave the same suite")
	}
}

func TestSuiteMixIsTheSameForEverySeed(t *testing.T) {
	want := 0
	for _, n := range suiteQuota {
		want += n
	}
	for seed := int64(1); seed <= 40; seed++ {
		for _, scale := range []float64{1, 0.01} {
			suite, err := genSuite(seed, scale)
			if err != nil {
				t.Fatal(err)
			}
			if scale == 1 && suiteTests(suite) != want {
				t.Errorf("seed %d: %d tests, want %d", seed, suiteTests(suite), want)
			}
			if suite.TotalPlantedBugs() == 0 {
				t.Errorf("seed %d scale %v: no planted bugs", seed, scale)
			}
		}
	}
}

func TestStreamsAreValidAndUseEnoughSites(t *testing.T) {
	for _, kind := range []callKind{hotCalls, sharedReads} {
		ops := genStream(kind, 3, 0)
		sites := map[uint8]bool{}
		writes, enq, deq, depth := 0, 0, 0, 0
		for _, o := range ops {
			def := callSites[o.site]
			sites[o.site] = true
			if def.write {
				writes++
			}
			if limit := map[int]int{classDict: 8, classList: 5}[def.class]; int(o.cont) >= max(limit, 1) {
				t.Fatalf("%v: container index %d out of range for class %d", kind, o.cont, def.class)
			}
			switch o.site {
			case siteQueueEnqueue:
				enq++
				depth++
			case siteQueueDequeue:
				deq++
				depth--
			}
			if depth < 0 || depth > 1 {
				t.Fatalf("%v: queue writes do not alternate", kind)
			}
		}
		if len(sites) < 32 {
			t.Errorf("%v: %d distinct call sites, want at least 32", kind, len(sites))
		}
		if enq != deq {
			t.Errorf("%v: %d enqueues, %d dequeues", kind, enq, deq)
		}
		frac := float64(writes) / float64(len(ops))
		if kind == sharedReads && writes != 0 {
			t.Errorf("shared_reads issues %d writes", writes)
		}
		if kind == hotCalls && (frac < 0.57 || frac > 0.63) {
			t.Errorf("hot_calls writes are %.3f of calls, want 0.6", frac)
		}
	}
	// Every site in the table is a case of do: the uninstrumented
	// containers execute each one without panicking.
	for i := range callSites {
		cs, _ := newContainerSet(false)
		cs.do(op{site: uint8(i), cont: 0, key: 5})
	}
}

func TestBenchmarkJSONAgreesWithPrintedNames(t *testing.T) {
	f, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	names := func(defs []metricDef) map[string]string {
		m := map[string]string{}
		for _, d := range defs {
			m[d.name] = d.unit
		}
		return m
	}
	fileE2E, filePL, fileW := map[string]string{}, map[string]string{}, map[string]bool{}
	for _, m := range f.EndToEnd {
		fileE2E[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range f.PerLayer {
		filePL[m.Name] = m.Unit
	}
	for _, w := range f.Workloads {
		fileW[w.Name] = true
	}
	if !reflect.DeepEqual(fileE2E, names(endToEnd)) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the program prints %v", fileE2E, names(endToEnd))
	}
	if !reflect.DeepEqual(filePL, names(perLayer)) {
		t.Errorf("per_layer: BENCHMARK.json and the program disagree:\nfile    %v\nprogram %v", filePL, names(perLayer))
	}
	codeW := map[string]bool{}
	for _, w := range workloads {
		codeW[w.name] = true
	}
	if !reflect.DeepEqual(fileW, codeW) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program runs %v", fileW, codeW)
	}
	if fileE2E["setup_s"] != "s" {
		t.Error("setup_s is missing from end_to_end")
	}
	if !reflect.DeepEqual(f.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", f.Paths)
	}
}

// lastLine parses the JSON object the driver reads.
func lastLine(t *testing.T, out string) (correct bool, attempted, failed int, metrics map[string]metricValue) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var obj struct {
		Correct   *bool                  `json:"correct"`
		Attempted *int                   `json:"attempted"`
		Failed    *int                   `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&obj); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	if obj.Correct == nil || obj.Attempted == nil || obj.Failed == nil {
		t.Fatalf("result object lacks a key: %s", lines[len(lines)-1])
	}
	return *obj.Correct, *obj.Attempted, *obj.Failed, obj.Metrics
}

func smoke(t *testing.T, workload, trace string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace,
		"-out", t.TempDir()}, &stdout, &stderr)
	return code, stdout.String() + stderr.String()
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			code, out := smoke(t, w.name, trace)
			if code != 0 {
				t.Fatalf("%s -trace %s exited %d:\n%s", w.name, trace, code, out)
			}
			correct, attempted, failed, metrics := lastLine(t, out)
			if !correct || attempted < 1 || failed != 0 {
				t.Errorf("%s -trace %s: correct=%v attempted=%d failed=%d", w.name, trace, correct, attempted, failed)
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if len(metrics) != len(defs) {
				t.Errorf("%s -trace %s printed %d metrics, want %d", w.name, trace, len(metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s -trace %s: metric %s = %+v (present %v), want unit %s", w.name, trace, d.name, m, ok, d.unit)
				}
				if trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, m.Value)
				}
				if !strings.Contains(out, "metric  "+d.name+" ") {
					t.Errorf("%s -trace %s does not print %s by name", w.name, trace, d.name)
				}
			}
		}
	}
}

func TestTracedRunWritesSpans(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	// -trace without a value, as the README writes it.
	if code := run([]string{"-workload", "fleet_sync", "-seconds", "0.2", "-out", dir, "-trace"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d:\n%s%s", code, stdout.String(), stderr.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		if s.Workload != "fleet_sync" || s.End < s.Start || s.Self < 0 || s.Self > s.End-s.Start {
			t.Errorf("bad span %+v", s)
		}
		names[s.Name]++
	}
	for _, want := range []string{"fleet_rep", "HTTPStore.Publish", "HTTPStore.Fetch", "SnapshotPersister.Save", "layer_probes"} {
		if names[want] == 0 {
			t.Errorf("no %q span recorded (have %v)", want, names)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("temporary snapshot directories were left behind: %v", entries)
	}
}

// A deliberately wrong expectation must fail the run: the output checks are
// live, not decoration.
func TestOutputChecksAreLive(t *testing.T) {
	skew = 1
	defer func() { skew = 0 }()
	for _, w := range []string{"hot_calls", "shared_reads", "suite_run", "fleet_sync"} {
		code, out := smoke(t, w, "0")
		correct, _, failed, _ := lastLine(t, out)
		if code == 0 || correct || failed == 0 {
			t.Errorf("%s with an off-by-one expectation: exit %d, correct=%v, failed=%d\n%s", w, code, correct, failed, out)
		}
		if !strings.Contains(out, "FAILED") {
			t.Errorf("%s does not say which check failed:\n%s", w, out)
		}
	}
}

func TestEnvironmentGuard(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "hot_calls", "-workers", "4096"}, &stdout, &stderr)
	if code == 0 || !strings.Contains(stderr.String(), "refusing") {
		t.Errorf("more workers than CPUs: exit %d, stderr %q", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("a refused run printed a result: %s", stdout.String())
	}
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload was accepted")
	}
	stdout.Reset()
	printHeader(&stdout, &stderr, 2, 9, 20)
	for _, want := range []string{"commit=", "go=" + runtime.Version(), "nproc=", "gomaxprocs=", "cpu=", "workers=2", "seed=9", "fasttime="} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("header lacks %q: %s", want, stdout.String())
		}
	}
}

func TestSetsCheckComparesAgainstBounds(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "BENCHMARK.json")
	write := func(bound string) {
		body := `{"end_to_end":[{"name":"slowdown_x","unit":"x","better":"lower","bound":` + bound + `}]}`
		if err := os.WriteFile(spec, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	a, b := newResult("fleet_sync"), newResult("fleet_sync")
	a.set("slowdown_x", 100)
	b.set("slowdown_x", 108)
	rounds := []map[string]*result{{"fleet_sync": a}, {"fleet_sync": b}}
	var stdout, stderr bytes.Buffer
	write("0.1")
	if !compareSets(&stdout, &stderr, rounds, spec, true) {
		t.Errorf("an 8 %% spread failed a 10 %% bound:\n%s", stdout.String())
	}
	write("0.05")
	if compareSets(&stdout, &stderr, rounds, spec, true) {
		t.Errorf("an 8 %% spread passed a 5 %% bound:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "100") || !strings.Contains(stdout.String(), "108") {
		t.Errorf("the sets are not printed side by side:\n%s", stdout.String())
	}
}
