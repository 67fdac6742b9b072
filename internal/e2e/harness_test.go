package e2e

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trapfile"
	"repro/internal/trapstore"
)

// repoRoot is the repository root as seen from this package's directory,
// which is where `go test` runs the test binary.
const repoRoot = "../.."

// bins are the real binaries, built once by TestMain (empty under -short).
var bins struct{ run, trapd, triage string }

func TestMain(m *testing.M) {
	flag.Parse()
	os.Exit(func() int {
		if !testing.Short() {
			dir, err := os.MkdirTemp("", "tsvd-e2e-bin-")
			if err != nil {
				fmt.Fprintln(os.Stderr, "e2e:", err)
				return 1
			}
			defer os.RemoveAll(dir)
			// One build for all three: -o <dir>/ names each binary after its package.
			build := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
				repoRoot+"/cmd/tsvd-run", repoRoot+"/cmd/tsvd-trapd", repoRoot+"/cmd/tsvd-triage")
			if out, err := build.CombinedOutput(); err != nil {
				fmt.Fprintf(os.Stderr, "e2e: go build: %v\n%s", err, out)
				return 1
			}
			bins.run = filepath.Join(dir, "tsvd-run")
			bins.trapd = filepath.Join(dir, "tsvd-trapd")
			bins.triage = filepath.Join(dir, "tsvd-triage")
		}
		return m.Run()
	}())
}

// needBinaries skips tests that spawn processes under -short.
func needBinaries(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns tsvd-run/tsvd-trapd/tsvd-triage processes; skipped under -short")
	}
}

// runBin runs one of the binaries to completion; a nonzero exit fails the
// test with the combined output.
func runBin(t *testing.T, bin string, args ...string) {
	t.Helper()
	if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
}

// startDaemon launches tsvd-trapd on an ephemeral port with the given extra
// flags and parses the bound base URL from its one startup line. The daemon
// is killed when the test ends; tests that kill it earlier use the returned
// command.
func startDaemon(t *testing.T, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bins.trapd, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
		io.Copy(io.Discard, stdout)
	}()
	select {
	case line := <-lines:
		url, found := strings.CutPrefix(line, "tsvd-trapd: listening on ")
		if !found {
			t.Fatalf("unexpected daemon startup line %q", line)
		}
		return cmd, url
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not print its listening line in time")
		return nil, ""
	}
}

// scrape GETs a Prometheus exposition endpoint and parses it into a
// series → value map, returning the Content-Type as received.
func scrape(t *testing.T, url string) (map[string]float64, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	vals, err := metrics.ParseValues(string(body))
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	return vals, resp.Header.Get("Content-Type")
}

// fetchJSON GETs url and decodes the JSON body into v.
func fetchJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// wantSeries asserts scraped series values exactly, reporting every
// mismatch. The exposition format round-trips float64 exactly and every
// counter is integral, so there is no tolerance.
func wantSeries(t *testing.T, where string, got, want map[string]float64) {
	t.Helper()
	for series, w := range want {
		if got[series] != w {
			t.Errorf("%s: %s = %v, want %v", where, series, got[series], w)
		}
	}
}

// fetchPairs reads a daemon's full merged snapshot through a fresh client.
func fetchPairs(t *testing.T, url string) []trapfile.Pair {
	t.Helper()
	c := trapstore.NewHTTPStore(url, trapstore.HTTPConfig{})
	defer c.Close()
	f, err := c.Fetch()
	if err != nil {
		t.Fatalf("fetch %s: %v", url, err)
	}
	return f.Pairs
}

// loadUnion merges the trap files at paths; an empty file fails the test
// (a shard that found nothing proves nothing about convergence).
func loadUnion(t *testing.T, paths ...string) []trapfile.Pair {
	t.Helper()
	var union trapfile.File
	for _, p := range paths {
		f, err := trapfile.LoadFile(p)
		if err != nil {
			t.Fatalf("trap file %s: %v", p, err)
		}
		if len(f.Pairs) == 0 {
			t.Fatalf("trap file %s holds no pairs", p)
		}
		union = trapfile.Merge(union, f)
	}
	return union.Pairs
}

// locPair is an unordered location pair in canonical order: the key every
// set comparison in this package uses.
func locPair(a, b string) trapfile.Pair {
	if b < a {
		a, b = b, a
	}
	return trapfile.Pair{A: a, B: b}
}

// pairSet collects pairs into a set.
func pairSet(pairs []trapfile.Pair) map[trapfile.Pair]bool {
	set := make(map[trapfile.Pair]bool, len(pairs))
	for _, p := range pairs {
		set[locPair(p.A, p.B)] = true
	}
	return set
}

// diffPairs is the one pair-set comparison: nil when got and want hold the
// same members, otherwise an error naming what each side has alone.
func diffPairs(got, want map[trapfile.Pair]bool) error {
	only := func(a, b map[trapfile.Pair]bool) []string {
		var out []string
		for p := range a {
			if !b[p] {
				out = append(out, p.A+" ↔ "+p.B)
			}
		}
		sort.Strings(out)
		return out
	}
	extra, missing := only(got, want), only(want, got)
	if len(extra) == 0 && len(missing) == 0 {
		return nil
	}
	return fmt.Errorf("%d unexpected pair(s) %v, %d missing pair(s) %v", len(extra), extra, len(missing), missing)
}

// eventually polls check every 100ms until it returns nil; when the timeout
// passes first, the test fails with check's last error.
func eventually(t *testing.T, timeout time.Duration, check func() error) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		err := check()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("still failing after %v: %v", timeout, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
