// Command tsvd-instrument rewrites Go source that uses the raw containers
// (repro/internal/rawcol) into source using the instrumented collections —
// the source-level analogue of the paper's static binary instrumenter (§4).
//
// Usage:
//
//	tsvd-instrument -dir ./myservice            # dry run: report only
//	tsvd-instrument -dir ./myservice -w         # rewrite in place
//	tsvd-instrument -dir . -det 'tsvd.Default()'
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/instrument"
)

func main() {
	var (
		dir       = flag.String("dir", ".", "directory tree to instrument")
		write     = flag.Bool("w", false, "rewrite files in place (default: dry run)")
		det       = flag.String("det", instrument.DefaultDetectorExpr, "detector expression for constructors")
		sitesPath = flag.String("sites", "", "write the instrumented site table (JSON) to this path")
	)
	flag.Parse()
	if *det == "" {
		fmt.Fprintln(os.Stderr, "tsvd-instrument: -det must name a detector expression")
		os.Exit(2)
	}

	res, err := instrument.RewriteDir(*dir, *det, *write)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsvd-instrument: %v\n", err)
		os.Exit(1)
	}
	if *sitesPath != "" {
		f, err := os.Create(*sitesPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tsvd-instrument: %v\n", err)
			os.Exit(1)
		}
		if err := instrument.EmitSiteTable(f, res.Sites); err != nil {
			fmt.Fprintf(os.Stderr, "tsvd-instrument: site table: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "tsvd-instrument: site table: %v\n", err)
			os.Exit(1)
		}
	}

	mode := "would instrument (dry run; use -w to write)"
	if *write {
		mode = "instrumented"
	}
	fmt.Printf("%s %d file(s), %d thread-unsafe call site(s):\n",
		mode, len(res.FilesChanged), len(res.CallSites()))
	for _, s := range res.Sites {
		kind := "read "
		if s.Write {
			kind = "write"
		}
		if s.Constructor {
			kind = "ctor "
		}
		fmt.Printf("  %s:%d  %s %s.%s\n", s.File, s.Line, kind, s.Class, s.Method)
	}
}
