// Command tsvd-trace-check validates a trace directory written by
// `tsvd-run -trace` with trace.CheckDir: every line of events.jsonl must
// parse against the schema, and the per-kind event counts must reconcile
// exactly with the detector counters recorded in summary.json
// (docs/OBSERVABILITY.md).
//
// Usage:
//
//	tsvd-trace-check <trace-dir>
//
// Exit status: 0 when the trace is schema-valid and reconciles, 1 otherwise.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/trace"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: tsvd-trace-check <trace-dir>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	dir := flag.Arg(0)
	events, kinds, err := trace.CheckDir(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsvd-trace-check: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("tsvd-trace-check: %s ok — %d events, %d kinds, counters reconcile, 0 dropped\n",
		dir, events, kinds)
}
