package e2e

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
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
