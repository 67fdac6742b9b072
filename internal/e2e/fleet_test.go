package e2e

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/trapfile"
	"repro/internal/trapstore"
)

// runShards runs one tsvd-run shard per daemon URL concurrently — shard i
// with -seed seedBase+i (different machines testing different modules),
// syncing through urls[i] — and returns the shards' local trap files.
func runShards(t *testing.T, dir, name string, seedBase int, urls ...string) []string {
	t.Helper()
	files := make([]string, len(urls))
	errs := make([]error, len(urls))
	var wg sync.WaitGroup
	for i, url := range urls {
		files[i] = filepath.Join(dir, fmt.Sprintf("%s%d.json", name, i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := exec.Command(bins.run,
				"-modules", "10", "-runs", "2", "-seed", fmt.Sprint(seedBase+i),
				"-trapfile", files[i], "-trap-server", url).CombinedOutput()
			if err != nil {
				errs[i] = fmt.Errorf("shard %d: %v\n%s", i, err, out)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestShardsConvergeThroughDaemon: three shards run concurrently against one
// daemon; afterwards the daemon's merged snapshot must equal the union of the
// per-shard local trap files exactly (the deterministic-merge contract of
// docs/DEPLOYMENT.md).
func TestShardsConvergeThroughDaemon(t *testing.T) {
	needBinaries(t)
	dir := t.TempDir()
	_, url := startDaemon(t, "-snapshot", filepath.Join(dir, "snapshot.json"))

	files := runShards(t, dir, "shard", 33, url, url, url)
	if err := diffPairs(pairSet(fetchPairs(t, url)), pairSet(loadUnion(t, files...))); err != nil {
		t.Fatalf("daemon snapshot != union of shard trap files: %v", err)
	}
}

// TestShardSurvivesDaemonKill: the daemon is killed while a shard is
// mid-run; the shard must fall back to its local trap file, keep every pair
// it had, report the degradation on stderr, and still exit 0 — fleet mode is
// an accelerant, never a point of failure.
func TestShardSurvivesDaemonKill(t *testing.T) {
	needBinaries(t)
	dir := t.TempDir()
	daemon, url := startDaemon(t, "-snapshot", filepath.Join(dir, "snapshot.json"))

	shardFile := runShards(t, dir, "shard", 33, url)[0]
	before := loadUnion(t, shardFile)
	gets := func() float64 {
		m, _ := scrape(t, url+"/metrics")
		return m[`tsvd_trapd_requests_total{endpoint="traps_get"}`]
	}
	getsBefore := gets()

	// Enough runs that the kill lands with several store syncs (and
	// therefore fallbacks) still to come.
	cmd := exec.Command(bins.run,
		"-modules", "40", "-runs", "4", "-seed", "33",
		"-trapfile", shardFile, "-trap-server", url)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill once the shard's first fetch has reached the daemon: the shard
	// is then inside run 1 with every publish still ahead of it.
	eventually(t, 30*time.Second, func() error {
		if gets() == getsBefore {
			return fmt.Errorf("the shard's first fetch has not reached the daemon")
		}
		return nil
	})
	if err := daemon.Process.Kill(); err != nil {
		t.Fatalf("kill daemon: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("shard with killed daemon exited nonzero: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "unreachable") {
		t.Fatalf("shard did not report the degradation; stderr: %q", stderr.String())
	}
	after := pairSet(loadUnion(t, shardFile))
	for p := range pairSet(before) {
		if !after[p] {
			t.Errorf("local trap file lost pair %v after daemon death", p)
		}
	}
}

// TestDaemonPersistsThroughItsLog drives the real daemon's two files: a
// growing publish is acknowledged with its rows in the append log, not in a
// rewritten snapshot; a kill-9 loses none of them (restart is snapshot +
// replay); SIGTERM folds the log back, leaving a snapshot that is a whole
// trap file by itself; and /metrics says what persisting cost.
func TestDaemonPersistsThroughItsLog(t *testing.T) {
	needBinaries(t)
	snap := filepath.Join(t.TempDir(), "snapshot.json")
	publish := func(url string, n int) trapfile.Pair {
		t.Helper()
		p := locPair(fmt.Sprintf("pkg/p%d.go:1", n), fmt.Sprintf("pkg/p%d.go:2", n))
		c := trapstore.NewHTTPStore(url, trapstore.HTTPConfig{})
		defer c.Close()
		if err := c.Publish(trapfile.File{Tool: "TSVD", Pairs: []trapfile.Pair{p}}); err != nil {
			t.Fatalf("publish %d: %v", n, err)
		}
		return p
	}
	alone := func() map[trapfile.Pair]bool {
		t.Helper()
		f, err := trapfile.LoadFile(snap)
		if err != nil {
			t.Fatalf("the snapshot alone: %v", err)
		}
		return pairSet(f.Pairs)
	}

	daemon, url := startDaemon(t, "-snapshot", snap)
	want := map[trapfile.Pair]bool{}
	for n := 0; n < 3; n++ {
		want[publish(url, n)] = true
	}
	if got := alone(); len(got) != 1 {
		t.Fatalf("after three acknowledged publishes the snapshot alone holds %d pairs, want the first only: the rest belong in the log", len(got))
	}
	if log, err := os.Stat(snap + ".log"); err != nil || log.Size() == 0 {
		t.Fatalf("no append log beside the snapshot: %v", err)
	}
	m, _ := scrape(t, url+"/metrics")
	if m["tsvd_trapd_persist_seconds_count"] != 3 || m["tsvd_trapd_persist_seconds_sum"] <= 0 {
		t.Fatalf("tsvd_trapd_persist_seconds after three growing merges: count %v sum %v",
			m["tsvd_trapd_persist_seconds_count"], m["tsvd_trapd_persist_seconds_sum"])
	}
	if v, ok := m["tsvd_trapd_persist_failures_total"]; !ok || v != 0 {
		t.Fatalf("tsvd_trapd_persist_failures_total after three durable merges: %v (exposed %v), want 0", v, ok)
	}

	if err := daemon.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	daemon.Wait()
	// What the killed append would have left: the front of a record.
	log, err := os.OpenFile(snap+".log", os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Write([]byte{0x60, 0, 0, 0, 1, 2, 3, 4, '{', '"'}); err != nil {
		t.Fatal(err)
	}
	log.Close()

	daemon, url = startDaemon(t, "-snapshot", snap)
	if err := diffPairs(pairSet(fetchPairs(t, url)), want); err != nil {
		t.Fatalf("after kill-9 and restart: %v", err)
	}
	want[publish(url, 3)] = true
	want[publish(url, 4)] = true
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := daemon.Wait(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if err := diffPairs(alone(), want); err != nil {
		t.Fatalf("a stopped daemon's snapshot alone: %v", err)
	}
	if left, err := os.ReadFile(snap + ".log"); err != nil || len(left) != 0 {
		t.Fatalf("a stopped daemon left a log of %d bytes (%v)", len(left), err)
	}
}

// TestPollerPaysDeltas is the wire economy of the real binary's ?since=
// path: a polling client pays one full snapshot up front; after that an idle
// poll is a 304 and a one-pair growth arrives as a delta body, never a second
// full snapshot.
func TestPollerPaysDeltas(t *testing.T) {
	needBinaries(t)
	_, url := startDaemon(t)
	publish := func(pairs ...trapfile.Pair) {
		t.Helper()
		pub := trapstore.NewHTTPStore(url, trapstore.HTTPConfig{})
		defer pub.Close()
		if err := pub.Publish(trapfile.File{Tool: "TSVD", Pairs: pairs}); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}
	var base []trapfile.Pair
	for n := 0; n < 20; n++ {
		base = append(base, locPair(fmt.Sprintf("e2e/base%d.go:1", n), fmt.Sprintf("e2e/base%d.go:2", n)))
	}
	publish(base...)

	poller := trapstore.NewHTTPStore(url, trapstore.HTTPConfig{})
	defer poller.Close()
	if _, err := poller.Fetch(); err != nil {
		t.Fatalf("poller full fetch: %v", err)
	}
	fullBytes := poller.WireStats().FetchBytes
	if _, err := poller.Fetch(); err != nil {
		t.Fatalf("poller idle fetch: %v", err)
	}
	publish(locPair("e2e/delta.go:1", "e2e/delta.go:2"))
	got, err := poller.Fetch()
	if err != nil {
		t.Fatalf("poller fetch after growth: %v", err)
	}
	if len(got.Pairs) != len(base)+1 {
		t.Fatalf("poller holds %d pairs after the delta, want %d", len(got.Pairs), len(base)+1)
	}
	ws := poller.WireStats()
	if ws.NotModified != 1 {
		t.Errorf("the idle poll was not a 304: %+v", ws)
	}
	if ws.DeltaFetches != 1 {
		t.Errorf("one pair of growth arrived as a full snapshot, not a delta: %+v", ws)
	}
	if steady := ws.FetchBytes - fullBytes; steady >= fullBytes {
		t.Errorf("steady-state polling cost %d bytes vs %d for one full snapshot; deltas are not saving wire", steady, fullBytes)
	}
}
