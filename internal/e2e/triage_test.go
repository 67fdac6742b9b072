package e2e

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/trapfile"
	"repro/internal/trapstore"
	"repro/internal/triage"
	"repro/internal/workload"
)

// TestTriageFoldsFleetIntoOneClusterPerBug: a K=4 shard × R=3 round
// in-process fleet over one shared trap store, with tracing and one shared
// Triage attached. The planted bugs fire from multiple shards; triage must
// fold every firing into exactly one cluster per distinct caught planted bug
// (zero duplicates, none invented), every cluster must carry a
// reproducibility rank and fleet provenance, every explanation slice must
// name the victim object's access pair, the injected delay and the absent
// happens-before ordering, and the triage metric counters must agree with
// the cluster report.
func TestTriageFoldsFleetIntoOneClusterPerBug(t *testing.T) {
	const shards, rounds = 4, 3
	suite := workload.GenerateSuite(2019, 12)
	base := harness.Options{Config: config.Defaults(config.AlgoTSVD).Scaled(0.02)}
	base.Config.Trace = true
	tri := triage.New()
	base.Triage = tri
	reg := metrics.NewRegistry()
	tri.RegisterMetrics(reg)

	out := harness.RunFleet(suite, shards, rounds, base, trapstore.NewMemory("TSVD", nil))
	if out.StoreErr != nil {
		t.Fatalf("store error: %v", out.StoreErr)
	}
	if len(out.Found) == 0 {
		t.Fatal("fleet caught no planted bugs; nothing to triage")
	}

	// Ground truth: the unordered loc-pair of every planted bug the fleet
	// caught. Exactly one cluster per member, no cluster outside the set.
	want := map[trapfile.Pair]bool{}
	for key := range out.Found {
		want[locPair(key.A.Key(), key.B.Key())] = true
	}
	clusters := tri.Clusters()
	got := map[trapfile.Pair]bool{}
	for _, c := range clusters {
		p := locPair(c.Sig.A.Loc, c.Sig.B.Loc)
		if got[p] {
			t.Errorf("pair %v reported as more than one cluster (duplicate reports)", p)
		}
		got[p] = true
	}
	if err := diffPairs(got, want); err != nil {
		t.Errorf("clusters != caught planted bugs: %v", err)
	}

	for _, c := range clusters {
		if c.Rank.Opportunities < c.Rank.FiringUnits || c.Rank.FiringUnits < 1 {
			t.Errorf("cluster %s: malformed rank %+v", c.ID, c.Rank)
		}
		if c.Rank.Low <= 0 || c.Rank.High > 1 {
			t.Errorf("cluster %s: confidence interval [%v, %v] out of range", c.ID, c.Rank.Low, c.Rank.High)
		}
		if c.First.Shard == 0 || c.First.Round == 0 || c.First.Mode == "" {
			t.Errorf("cluster %s: missing fleet provenance %+v", c.ID, c.First)
		}
		ex := c.Explanation
		if ex == nil {
			t.Errorf("cluster %s: no explanation slice", c.ID)
			continue
		}
		if pair := locPair(c.Sig.A.Loc, c.Sig.B.Loc); locPair(ex.TrappedLoc, ex.ConflictingLoc) != pair {
			t.Errorf("cluster %s: explanation names pair %s/%s, cluster is %v", c.ID, ex.TrappedLoc, ex.ConflictingLoc, pair)
		}
		if ex.Object == 0 {
			t.Errorf("cluster %s: explanation names no victim object", c.ID)
		}
		if ex.GrantedDelayUS <= 0 && ex.InjectedDelayUS <= 0 {
			t.Errorf("cluster %s: explanation names no injected delay", c.ID)
		}
		if ex.HBOrdered {
			t.Errorf("cluster %s: sprung pair claims a happens-before ordering", c.ID)
		}
		if !strings.Contains(ex.Verdict, "no happens-before") {
			t.Errorf("cluster %s: verdict omits the absent HB ordering: %s", c.ID, ex.Verdict)
		}
	}

	wantSeries(t, "triage", reg.Values(), map[string]float64{
		"tsvd_triage_clusters_total":       float64(len(clusters)),
		"tsvd_triage_firings_folded_total": float64(tri.FiringsFolded()),
	})
}

// TestTriageCLIFoldsSameSeedShards drives the real binaries: two same-seed
// `tsvd-run -trace` shards (the same bugs twice over, the duplicate-heavy
// case dedup exists for) folded by `tsvd-triage` into one report whose
// clusters are exactly the distinct sprung pairs across both traces and whose
// folded-firing count is exactly the number of springs — the cross-process
// dedup path CI dashboards consume.
func TestTriageCLIFoldsSameSeedShards(t *testing.T) {
	needBinaries(t)
	dir := t.TempDir()
	traceDirs := []string{filepath.Join(dir, "shard1"), filepath.Join(dir, "shard2")}
	sprung := map[trapfile.Pair]bool{}
	var firings int64
	for _, td := range traceDirs {
		runBin(t, bins.run, "-modules", "10", "-runs", "1", "-seed", "2019", "-trace", td)
		// Ground truth from the traces themselves.
		_, events, err := trace.ReadDir(td)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			if ev.Ev == trace.KindTrapSprung.String() {
				sprung[locPair(ev.LocA, ev.LocB)] = true
				firings++
			}
		}
	}
	if firings == 0 {
		t.Fatal("no trap_sprung events in either trace; nothing to triage")
	}

	outDir := filepath.Join(dir, "bugs")
	runBin(t, bins.triage, "-out", outDir, traceDirs[0], traceDirs[1])
	raw, err := os.ReadFile(filepath.Join(outDir, "bugs.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Clusters int   `json:"clusters"`
		Firings  int64 `json:"firings_folded"`
		Bugs     []struct {
			ID    string `json:"id"`
			SiteA struct {
				Loc string `json:"loc"`
			} `json:"site_a"`
			SiteB struct {
				Loc string `json:"loc"`
			} `json:"site_b"`
		} `json:"bugs"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("parse bugs.json: %v", err)
	}
	if rep.Clusters != len(rep.Bugs) {
		t.Errorf("bugs.json says %d clusters, lists %d", rep.Clusters, len(rep.Bugs))
	}
	if rep.Firings != firings {
		t.Errorf("folded %d firings, traces contain %d springs", rep.Firings, firings)
	}
	reported := map[trapfile.Pair]bool{}
	ids := map[string]bool{}
	for _, b := range rep.Bugs {
		p := locPair(b.SiteA.Loc, b.SiteB.Loc)
		if ids[b.ID] || reported[p] {
			t.Errorf("cluster %s (%v) reported twice (duplicates not folded)", b.ID, p)
		}
		ids[b.ID], reported[p] = true, true
	}
	if err := diffPairs(reported, sprung); err != nil {
		t.Errorf("bugs.json clusters != distinct sprung pairs: %v", err)
	}
}

// TestBugIDsAgreeAcrossRoutes: one run folded twice — in-process by
// `tsvd-run -triage`, and from its own trace directory by `tsvd-triage` —
// names every bug by the same id with the same firings. (When a signature
// also hashed stack frames, which only the in-process route has, the two
// reports of one run had no id in common.)
func TestBugIDsAgreeAcrossRoutes(t *testing.T) {
	needBinaries(t)
	dir := t.TempDir()
	traceDir := filepath.Join(dir, "trace")
	inProcess, offline := filepath.Join(dir, "b1"), filepath.Join(dir, "b2")
	runBin(t, bins.run, "-modules", "40", "-runs", "2", "-trace", traceDir, "-triage", inProcess)
	runBin(t, bins.triage, "-out", offline, traceDir)

	// Decoded strictly: a cluster holds what triage.JSONCluster declares —
	// its tuple pair, its counts and its explanation — and no other key.
	type report struct {
		Tool     string               `json:"tool"`
		Clusters int                  `json:"clusters"`
		Firings  int64                `json:"firings_folded"`
		Units    int64                `json:"units"`
		Bugs     []triage.JSONCluster `json:"bugs"`
	}
	read := func(dir string) (report, map[string]int64) {
		f, err := os.Open(filepath.Join(dir, "bugs.json"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		dec := json.NewDecoder(f)
		dec.DisallowUnknownFields()
		var rep report
		if err := dec.Decode(&rep); err != nil {
			t.Fatalf("parse %s/bugs.json: %v", filepath.Base(dir), err)
		}
		firings := map[string]int64{}
		for _, b := range rep.Bugs {
			firings[b.ID] = b.Firings
		}
		return rep, firings
	}
	r1, f1 := read(inProcess)
	r2, f2 := read(offline)
	if r1.Clusters == 0 {
		t.Fatal("the run caught nothing; there are no ids to compare")
	}
	if r1.Clusters != r2.Clusters || r1.Firings != r2.Firings {
		t.Errorf("tsvd-run -triage: %d clusters from %d firings; tsvd-triage on its trace: %d from %d",
			r1.Clusters, r1.Firings, r2.Clusters, r2.Firings)
	}
	if !reflect.DeepEqual(f1, f2) {
		common := 0
		for id := range f1 {
			if _, ok := f2[id]; ok {
				common++
			}
		}
		t.Errorf("the two reports of one run share %d of %d ids:\ntsvd-run -triage: %v\ntsvd-triage:      %v",
			common, len(f1), f1, f2)
	}
}

// TestTriageCLIServerNeedsOutBeforeDialing: -server without -out is a usage
// error, and it is one before the daemon is asked for anything.
func TestTriageCLIServerNeedsOutBeforeDialing(t *testing.T) {
	needBinaries(t)
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.NotFound(w, r)
	}))
	defer srv.Close()
	out, err := exec.Command(bins.triage, "-server", srv.URL).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("tsvd-triage -server without -out: %v, want exit 2\n%s", err, out)
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("the daemon received %d request(s) before the usage error", n)
	}
}
