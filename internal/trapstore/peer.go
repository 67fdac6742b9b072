package trapstore

import (
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/trapfile"
)

// ReplicatorConfig wires a daemon's Memory to its peers for anti-entropy
// replication (cmd/tsvd-trapd's -peer flag).
type ReplicatorConfig struct {
	// Peers are the base URLs of the other daemons (e.g.
	// "http://127.0.0.1:8322"). The topology need not be complete: each
	// sync round both pulls from and pushes to every peer, so any connected
	// graph converges.
	Peers []string
	// Interval is the period between sync rounds for Start (default 2s).
	Interval time.Duration
	// HTTP is the client template for per-peer connections. Its Metrics
	// field is ignored — the unlabeled tsvd_store_* series admit at most
	// one client per registry; peer traffic is accounted by the
	// tsvd_trapd_peer_* counters instead.
	HTTP HTTPConfig
	// OnMerge, when non-nil, runs after every pull that grew the local set,
	// with the post-merge set and sync state — the same hook NewHandler
	// takes, so the daemon persists peer-learned pairs exactly as it
	// persists client-published ones.
	OnMerge func(trapfile.File, SyncState)
	// Logf, when non-nil, receives one line per effective sync (pairs moved
	// or errors encountered).
	Logf func(format string, args ...any)
	// Metrics, when non-nil, registers the tsvd_trapd_peer_* counters.
	Metrics *metrics.Registry
}

// PeerSyncResult reports one peer's share of a sync round: the pairs the
// pull added locally, the pairs pushed to the peer, and any errors. The
// pair lists are exact (not counts) so test harnesses — the chaos driver's
// contract model in particular — can track replica state precisely.
type PeerSyncResult struct {
	// Peer is the peer's base URL as configured.
	Peer string
	// Pulled are the pairs the local set gained by merging the peer's
	// snapshot (empty when the peer had nothing new).
	Pulled []trapfile.Pair
	// Pushed are the pairs sent to and acked by the peer this round (empty
	// when nothing changed locally since the last acked push).
	Pushed []trapfile.Pair
	// PullErr and PushErr carry the round's failures; both nil on a clean
	// sync. An unreachable peer is a normal condition (ErrUnavailable) —
	// anti-entropy retries forever, that is the point.
	PullErr, PushErr error
}

// Replicator keeps one daemon's Memory converging with its peers by
// periodic pull+push anti-entropy. Pulls use the delta-capable HTTPStore
// client, so steady-state rounds against idle peers cost a 304 header
// exchange; pushes send only the log since the peer last acked — the whole
// set the first time, or after this daemon's own Restore.
//
// Because the trap set is a G-Set CRDT (trapfile.Merge is a commutative,
// idempotent, monotone union), replication needs no coordination: any
// connected topology converges to the union of all daemons' sets once
// partitions heal, regardless of sync order or repetition.
type Replicator struct {
	mem     *Memory
	cfg     ReplicatorConfig
	clients []*HTTPStore

	mu sync.Mutex
	// pushed is the local state as of each peer's last acked push; the zero
	// state (before the first) names no generation, so the first push is the
	// whole set.
	pushed []SyncState

	started  bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	syncs, pulledPairs, pushedPairs, errors *metrics.Counter
}

// NewReplicator returns a replicator for mem against cfg.Peers. It does not
// start syncing: call Start for the periodic loop, or SyncOnce to drive
// rounds explicitly (tests and the chaos harness do the latter for
// determinism).
func NewReplicator(mem *Memory, cfg ReplicatorConfig) *Replicator {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	hc := cfg.HTTP
	hc.Metrics = nil
	r := &Replicator{
		mem:    mem,
		cfg:    cfg,
		pushed: make([]SyncState, len(cfg.Peers)),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for _, p := range cfg.Peers {
		r.clients = append(r.clients, NewHTTPStore(p, hc))
	}
	reg := cfg.Metrics
	r.syncs = reg.Counter("tsvd_trapd_peer_syncs_total",
		"Completed anti-entropy sync rounds (all peers attempted).")
	r.pulledPairs = reg.Counter("tsvd_trapd_peer_pulled_pairs_total",
		"Pairs the local set gained from peer pulls.")
	r.pushedPairs = reg.Counter("tsvd_trapd_peer_pushed_pairs_total",
		"Pairs pushed to and acked by peers.")
	r.errors = reg.Counter("tsvd_trapd_peer_errors_total",
		"Failed peer pull or push attempts (unreachable peers retry next round).")
	return r
}

// Peers returns the configured peer URLs.
func (r *Replicator) Peers() []string { return append([]string(nil), r.cfg.Peers...) }

// SyncOnce runs one full anti-entropy round: for each peer, pull its
// snapshot (delta-sized when possible) and merge it locally, then push the
// local log since that peer's last acked push (the full set on the first
// push). Errors are per-peer and non-fatal — an unreachable peer simply
// stays behind until a later round.
func (r *Replicator) SyncOnce() []PeerSyncResult {
	results := make([]PeerSyncResult, len(r.clients))
	for i, c := range r.clients {
		res := &results[i]
		res.Peer = r.cfg.Peers[i]

		// Pull: merge the peer's set into ours.
		if f, err := c.Fetch(); err != nil {
			res.PullErr = err
			r.errors.Inc()
		} else {
			added, st := r.mem.merge(f)
			res.Pulled = added.Pairs
			r.pulledPairs.Add(int64(len(added.Pairs)))
			if rows(added) > 0 {
				if r.cfg.OnMerge != nil {
					r.cfg.OnMerge(r.mem.SnapshotState())
				}
				r.cfg.Logf("peer sync %s: pulled %d pairs (generation %d)", res.Peer, len(added.Pairs), st.Generation)
			}
		}

		// Push: send the log since the peer last acked us. The pull above
		// already folded the peer's own rows into that window — pushing them
		// back is a no-op merge on the peer, which idempotence makes harmless.
		r.mu.Lock()
		since := r.pushed[i]
		r.mu.Unlock()
		f, cur, _ := r.mem.window(since)
		if rows(f) > 0 {
			if err := c.Publish(f); err != nil {
				res.PushErr = err
				r.errors.Inc()
				continue
			}
			res.Pushed = f.Pairs
			r.pushedPairs.Add(int64(len(f.Pairs)))
			r.cfg.Logf("peer sync %s: pushed %d pairs", res.Peer, len(f.Pairs))
		}
		r.mu.Lock()
		r.pushed[i] = cur
		r.mu.Unlock()
	}
	r.syncs.Inc()
	return results
}

// Start launches the periodic sync loop. It returns immediately; Close
// stops the loop. Start must be called at most once.
func (r *Replicator) Start() {
	r.started = true
	go func() {
		defer close(r.done)
		t := time.NewTicker(r.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.SyncOnce()
			}
		}
	}()
}

// Close stops the loop started by Start (waiting for any in-flight round to
// return), then closes the peer clients — aborting any request or backoff a
// sync is blocked in. Close is idempotent, and safe when only SyncOnce was
// ever used.
func (r *Replicator) Close() error {
	r.stopOnce.Do(func() { close(r.stop) })
	if r.started {
		<-r.done
	}
	for _, c := range r.clients {
		c.Close()
	}
	return nil
}
