// Command tsvd-trapd is the fleet trap-aggregation daemon: it holds the
// merged dangerous-pair set that concurrent test shards (tsvd-run
// -trap-server, or any trapstore.HTTPStore client) publish to and seed
// from, generalizing the paper's cross-run trap persistence (§3.4.6)
// across the shards of a CI fleet.
//
// Usage:
//
//	tsvd-trapd -addr 127.0.0.1:8321 -snapshot /var/lib/tsvd/traps.json
//	tsvd-trapd -addr 127.0.0.1:0 -v     # ephemeral port, printed on stdout
//
// The daemon speaks the trapstore wire schema on /v1/traps (GET snapshot
// with an epoch-qualified ETag and O(delta) ?since= incremental responses,
// POST merge), answers liveness probes on /healthz (JSON: status,
// generation, epoch, pairs, uptime_seconds), and exposes Prometheus metrics
// on /metrics (tsvd_trapd_* series; see docs/OBSERVABILITY.md). It holds
// pairs and nothing derived from them: the triage view of its merged set is
// tsvd-triage -server's job (docs/OBSERVABILITY.md "Triage"). With -pprof
// the standard net/http/pprof profiling endpoints are additionally mounted
// under /debug/pprof/ — off by default, since profiling handlers on a
// fleet-shared daemon are a footgun. With -snapshot FILE it seeds its set —
// and restores its generation counter, keeping it monotone across restarts —
// from FILE and the append log FILE.log beside it at startup, and persists
// every merge that grows the set before acknowledging it: the rows the merge
// added go to the log, and now and then the log is folded back into FILE (a
// compaction), so a restarted daemon resumes where it stopped. SIGINT/SIGTERM
// shut it down gracefully, folding the log into the snapshot: a stopped
// daemon's FILE alone is a whole trap file.
//
// On startup it prints exactly one line, "tsvd-trapd: listening on
// http://HOST:PORT", so wrappers that start it with -addr ...:0 can
// discover the bound port. Exit status: 0 on clean shutdown, 1 on runtime
// failures, 2 on usage errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/trapfile"
	"repro/internal/trapstore"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr     = flag.String("addr", "127.0.0.1:8321", "listen address (use :0 for an ephemeral port)")
		snapshot = flag.String("snapshot", "", "trap file to seed from at startup and persist after every merge (with its append log, <file>.log)")
		tool     = flag.String("tool", "TSVD", "tool label for the aggregated trap set")
		verbose  = flag.Bool("v", false, "log every merge")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "tsvd-trapd: unexpected arguments %v\n", flag.Args())
		return 2
	}

	logger := log.New(os.Stderr, "tsvd-trapd: ", log.LstdFlags)

	store := trapstore.NewMemory(*tool, nil)
	var persister *trapstore.SnapshotPersister
	if *snapshot != "" {
		persister = trapstore.NewSnapshotPersister(*snapshot)
		f, prev, err := persister.Load()
		if err != nil {
			// A corrupt snapshot must not be silently replaced by an empty
			// set: shards would lose every previously aggregated pair.
			logger.Printf("refusing to start: %v", err)
			return 1
		}
		// Restore continues the persisted generation under this boot's fresh
		// epoch, so no two daemon lifetimes ever serve the same ETag for
		// different sets.
		store.Restore(f, prev)
		if len(f.Pairs) > 0 {
			logger.Printf("seeded %d pairs from %s (generation %d continues at %d)",
				len(f.Pairs), *snapshot, prev.Generation, store.Status().Generation)
		}
	}

	// The persister serializes concurrent merge handlers' saves and drops
	// stale generations, so what is on disk can never regress below a state a
	// client's publish was already acknowledged against. A save either appends
	// the rows the set gained to the log or compacts, which leaves the log
	// empty; its size afterwards says which, without asking the persister.
	reg := metrics.NewRegistry()
	persistSeconds := reg.Histogram("tsvd_trapd_persist_seconds",
		"Time to make one growing merge durable (log append or compaction, fsync included).",
		1e-9, metrics.ExpBounds(int64(100*time.Microsecond), 2, 13)) // 100µs..~400ms
	var logged struct {
		sync.Mutex
		rows int
		size int64
	}
	saveSnapshot := func(f trapfile.File, st trapstore.SyncState) {
		if persister == nil {
			return
		}
		begin := time.Now()
		err := persister.Save(f, st)
		persistSeconds.Observe(int64(time.Since(begin)))
		if err != nil {
			logger.Printf("persist failed (set kept in memory): %v", err)
			return
		}
		if !*verbose {
			return
		}
		var size int64
		if fi, err := os.Stat(*snapshot + ".log"); err == nil {
			size = fi.Size()
		}
		rows := len(f.Pairs) + len(f.Sites)
		logged.Lock()
		defer logged.Unlock()
		switch {
		case size == 0 || size < logged.size: // emptied, perhaps appended to since
			logger.Printf("persisted generation %d: compaction, snapshot of %d pairs (log now %d bytes)",
				st.Generation, len(f.Pairs), size)
		case size > logged.size:
			logger.Printf("persisted generation %d: appended %d rows, %d bytes (log now %d bytes)",
				st.Generation, rows-logged.rows, size-logged.size, size)
		default:
			logger.Printf("generation %d was already durable: a newer one was persisted first", st.Generation)
			return
		}
		logged.rows, logged.size = rows, size
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = logger.Printf
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Printf("%v", err)
		return 1
	}
	// The one machine-readable startup line: wrappers parse the bound
	// address from it when they start the daemon on an ephemeral port.
	fmt.Printf("tsvd-trapd: listening on http://%s\n", ln.Addr())
	if *verbose {
		logger.Printf("boot epoch %s", store.Status().SyncState)
	}

	handler := trapstore.NewHandler(store, trapstore.HandlerOptions{
		OnMerge: saveSnapshot,
		Logf:    logf,
		Metrics: reg,
	})
	var root http.Handler = handler
	if *pprofOn {
		// The profiling endpoints live in the binary, not the library: the
		// trapstore handler stays free of net/http/pprof so embedding it
		// never drags profiling routes into a production mux uninvited.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		root = mux
	}

	srv := &http.Server{Handler: root}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		logger.Printf("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Printf("shutdown: %v", err)
		}
		if persister != nil {
			// Not a loss: the snapshot and its log stay readable together.
			if err := persister.Close(); err != nil {
				logger.Printf("folding the log into the snapshot failed: %v", err)
			}
		}
		return 0
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Printf("%v", err)
			return 1
		}
		return 0
	}
}
