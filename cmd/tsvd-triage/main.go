// Command tsvd-triage folds one or many trace directories (or a fleet
// daemon's merged snapshot) into a deduplicated, ranked, explained bug
// report: bugs.json and bugs.md, one cluster per distinct TSV
// (docs/OBSERVABILITY.md, "Triage").
//
// Usage:
//
//	tsvd-triage -out /tmp/bugs /tmp/shard1-trace /tmp/shard2-trace ...
//	tsvd-triage -out /tmp/bugs -server http://127.0.0.1:8321
//
// Each directory argument must contain the events.jsonl and summary.json a
// `tsvd-run -trace` invocation wrote (schema v5), and must pass the trace
// contract (docs/OBSERVABILITY.md): every line parses against the schema and
// the per-kind event counts reconcile exactly with the detector and store
// counters in the summary, none dropped. Every directory is one triage unit:
// firings come from its trap_sprung events, identities resolve through its
// summary site table, and the same bug appearing in N directories folds into
// one cluster with N-fold provenance — this is how a K-shard fleet's
// per-shard traces become one report.
//
// With -server the report is instead derived from the daemon's merged trap
// snapshot (GET /v1/traps): one cluster per dangerous pair, with no firing
// counts — the daemon only ever sees pairs. A bug's id is its site pair, so
// it is the same id the shards' own reports and trace folds give that bug.
//
// Exit status: 0 on success, 1 on unreadable, invalid or unreconciled input,
// 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/trace"
	"repro/internal/trapstore"
	"repro/internal/triage"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		outDir = flag.String("out", "", "directory to write bugs.json and bugs.md (default: first input dir)")
		server = flag.String("server", "", "tsvd-trapd base URL: triage the daemon's merged snapshot instead of trace dirs")
	)
	flag.Parse()
	dirs := flag.Args()

	if *server != "" && len(dirs) > 0 {
		fmt.Fprintln(os.Stderr, "tsvd-triage: -server and trace directories are mutually exclusive")
		return 2
	}
	if *server == "" && len(dirs) == 0 {
		fmt.Fprintln(os.Stderr, "tsvd-triage: need at least one trace directory (or -server)")
		return 2
	}

	if *server != "" {
		if *outDir == "" {
			fmt.Fprintln(os.Stderr, "tsvd-triage: -server requires -out")
			return 2
		}
		store := trapstore.NewHTTPStore(*server, trapstore.HTTPConfig{})
		defer store.Close()
		f, err := store.Fetch()
		if err != nil {
			fmt.Fprintf(os.Stderr, "tsvd-triage: fetch %s: %v\n", *server, err)
			return 1
		}
		clusters := triage.FromTrapFile(f)
		if err := triage.WriteDir(*outDir, f.Tool, 0, clusters); err != nil {
			fmt.Fprintf(os.Stderr, "tsvd-triage: %v\n", err)
			return 1
		}
		fmt.Printf("tsvd-triage: %d cluster(s) from the daemon snapshot (%d pairs), written to %s\n",
			len(clusters), len(f.Pairs), *outDir)
		return 0
	}

	tri := triage.New()
	tool := ""
	for _, dir := range dirs {
		t, err := ingestDir(tri, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tsvd-triage: %s: %v\n", dir, err)
			return 1
		}
		if tool == "" {
			tool = t
		}
	}
	if tool == "" {
		tool = "tsvd"
	}
	dest := *outDir
	if dest == "" {
		dest = dirs[0]
	}
	clusters := tri.Clusters()
	if err := triage.WriteDir(dest, tool, tri.Units(), clusters); err != nil {
		fmt.Fprintf(os.Stderr, "tsvd-triage: %v\n", err)
		return 1
	}
	fmt.Printf("tsvd-triage: %d cluster(s) from %d firing(s) across %d dir(s), written to %s\n",
		len(clusters), tri.FiringsFolded(), len(dirs), dest)
	return 0
}

// ingestDir folds one trace directory into tri as a single unit and returns
// the producing tool's name from its summary. A directory that fails
// Summary.Check dropped or lost events: its opportunity counts and
// explanation slices would be wrong, so it is refused rather than folded.
func ingestDir(tri *triage.Triage, dir string) (string, error) {
	sum, jes, err := trace.ReadDir(dir)
	if err != nil {
		return "", err
	}
	if _, err := sum.Check(jes); err != nil {
		return "", err
	}
	tri.AddTrace(trace.ModuleTracesOf(jes), sum.Sites, triage.Provenance{Source: dir})
	return sum.Tool, nil
}
