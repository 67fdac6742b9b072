package trapstore

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/trapfile"
)

// HTTPConfig tunes an HTTPStore. The zero value selects the defaults below
// — shards in CI should rarely need anything else.
type HTTPConfig struct {
	// Timeout bounds each individual HTTP request (default 2s). A daemon
	// that hangs is indistinguishable from one that is down; the shard must
	// not stall its test run waiting.
	Timeout time.Duration
	// Attempts is the total number of tries per operation, first included
	// (default 4). Exhausting them yields an ErrUnavailable-wrapped error.
	Attempts int
	// BackoffBase is the pre-jitter delay before the first retry (default
	// 50ms); each further retry doubles it.
	BackoffBase time.Duration
	// BackoffMax caps the pre-jitter delay (default 1s), bounding the worst
	// case: an unreachable daemon costs at most
	// Attempts·Timeout + Σ backoff ≈ a few seconds per operation.
	BackoffMax time.Duration
	// Tracer receives store_fetch/store_publish events; nil disables.
	Tracer *trace.Tracer
	// Metrics, when non-nil, exports the client's operation counters and
	// latency histograms (the tsvd_store_* families; docs/OBSERVABILITY.md).
	// Register at most one store client per registry.
	Metrics *metrics.Registry
	// Transport, when non-nil, replaces the default HTTP transport. It is the
	// fault-injection seam the chaos harness (internal/chaos) uses to put a
	// slow, flaky, or 5xx-speaking network between a shard and its daemon
	// without a real proxy. Production callers leave it nil.
	Transport http.RoundTripper
	// PublishChunkBytes caps one POST body (default 8 MiB, matching the
	// daemon's payload cap). Publish splits a trap set whose JSON exceeds it
	// into multiple bounded POSTs — safe because merge is a commutative,
	// idempotent union, so N partial merges equal one big one. Tests lower
	// it to exercise chunking without megabyte payloads.
	PublishChunkBytes int
}

func (c HTTPConfig) withDefaults() HTTPConfig {
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Attempts <= 0 {
		c.Attempts = 4
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = time.Second
	}
	if c.PublishChunkBytes <= 0 {
		c.PublishChunkBytes = defaultMaxTrapPayload
	}
	return c
}

// HTTPStore is the shard-side client of cmd/tsvd-trapd.
//
// Robustness contract: every operation has a per-request timeout, transient
// failures (transport errors, 5xx) retry with bounded exponential backoff
// plus jitter, and exhausted retries return an error wrapping
// ErrUnavailable — which Fallback turns into graceful degradation. Data
// errors (a daemon speaking another schema version) wrap
// trapfile.ErrCorrupt and are never retried: repeating a malformed exchange
// cannot fix it.
//
// Fetch is conditional and incremental: the store remembers the last
// snapshot's epoch-qualified sync state and sends both If-None-Match (an
// idle daemon answers 304 — a header exchange, no body) and ?since= (a
// grown daemon answers with only the pairs added since — O(delta), not
// O(pairs)). A daemon restart changes the epoch, so the cached state never
// false-matches across daemon lifetimes; the client transparently takes one
// full snapshot and resumes delta polling.
type HTTPStore struct {
	url string
	cfg HTTPConfig

	client *http.Client
	// ctx is canceled by Close: in-flight requests abort and backoff sleeps
	// return immediately, so no goroutine lingers in a retry loop past
	// daemon (or shard) shutdown.
	ctx    context.Context
	cancel context.CancelFunc
	// sleep is swapped by tests to observe the backoff schedule without
	// actually waiting; the default waits on the timer or on ctx, whichever
	// fires first, and reports ctx's error when the store was closed mid-wait.
	sleep func(time.Duration) error

	mu  sync.Mutex
	rng *rand.Rand
	// mirror is the daemon's set as of the last successful fetch and the
	// daemon's sync state it was taken at; nil until there is one. It is only
	// ever grown and copied out, never asked for a window, so it keeps no
	// arrival order.
	mirror *setAt

	instr
}

// setAt is a normalized set and the daemon sync state it was taken at, with
// the conditional GET that asks what the set lacks since then — its ETag and
// the URL carrying its ?since= cursor — rendered once per state, not once
// per poll.
type setAt struct {
	set       trapfile.File
	at        SyncState
	etag, url string
}

// moveTo records that the set is now the daemon's at st, served at base.
func (m *setAt) moveTo(base string, st SyncState) {
	m.at, m.etag, m.url = st, etagOf(st), base+"?"+SinceParam+"="+st.String()
}

// NewHTTPStore returns a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8321"); the /v1/traps resource path is appended.
func NewHTTPStore(baseURL string, cfg HTTPConfig) *HTTPStore {
	cfg = cfg.withDefaults()
	base := strings.TrimSuffix(baseURL, "/")
	ctx, cancel := context.WithCancel(context.Background())
	s := &HTTPStore{
		url:    base + TrapsPath,
		cfg:    cfg,
		client: &http.Client{Transport: cfg.Transport},
		ctx:    ctx,
		cancel: cancel,
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
		instr:  newInstr(cfg.Tracer, base),
	}
	s.sleep = s.ctxSleep
	s.register(cfg.Metrics)
	return s
}

// ctxSleep waits d, or returns early with the context's error when Close
// cancels the store mid-backoff.
func (s *HTTPStore) ctxSleep(d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-s.ctx.Done():
		return s.ctx.Err()
	}
}

// URL returns the traps resource URL this store talks to.
func (s *HTTPStore) URL() string { return s.url }

// backoffDelay returns the jittered delay before retry number retry (0 for
// the first retry). The pre-jitter delay is BackoffBase·2^retry capped at
// BackoffMax; jitter draws uniformly from [d/2, d), so concurrent shards
// that failed together do not retry in lockstep and the total schedule
// stays bounded.
func (s *HTTPStore) backoffDelay(retry int) time.Duration {
	d := s.cfg.BackoffBase << retry
	if d <= 0 || d > s.cfg.BackoffMax { // <<-overflow or past the cap
		d = s.cfg.BackoffMax
	}
	s.mu.Lock()
	j := time.Duration(s.rng.Int63n(int64(d/2) + 1))
	s.mu.Unlock()
	return d/2 + j
}

// retry runs op up to cfg.Attempts times. op reports whether its failure is
// retryable; non-retryable errors surface immediately, exhausted attempts
// wrap ErrUnavailable. A store closed mid-backoff stops retrying promptly
// and reports ErrUnavailable — to its caller, a closed client and a dead
// daemon look the same.
func (s *HTTPStore) retry(name string, op func() (retryable bool, err error)) error {
	var last error
	for attempt := 0; attempt < s.cfg.Attempts; attempt++ {
		if attempt > 0 {
			s.retried()
			if err := s.sleep(s.backoffDelay(attempt - 1)); err != nil {
				return fmt.Errorf("trapstore: %s %s: store closed during retry backoff: %w (%v)",
					name, s.url, ErrUnavailable, err)
			}
		}
		retryable, err := op()
		if err == nil {
			return nil
		}
		if !retryable {
			return err
		}
		last = err
	}
	return fmt.Errorf("trapstore: %s %s: %d attempts exhausted: %w (last error: %v)",
		name, s.url, s.cfg.Attempts, ErrUnavailable, last)
}

// do issues one request with the per-request timeout applied and returns
// the response with its body already read into data. A body is sent as JSON;
// a non-empty ifNoneMatch makes the request conditional. The request context
// derives from the store's, so Close aborts in-flight requests too, not just
// backoff waits.
func (s *HTTPStore) do(method, url, ifNoneMatch string, body []byte) (resp *http.Response, data []byte, err error) {
	ctx, cancel := context.WithTimeout(s.ctx, s.cfg.Timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	if resp, err = s.client.Do(req); err != nil {
		return nil, nil, err
	}
	// Read the whole body under the same timeout so a daemon that hangs
	// mid-body cannot stall the shard either.
	data, err = io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	resp.Body.Close()
	return resp, data, err
}

// Fetch implements TrapStore. The returned File owns its Pairs slice:
// callers may mutate it freely without corrupting the client's cache.
func (s *HTTPStore) Fetch() (trapfile.File, error) {
	var out trapfile.File
	var wasDelta bool
	var bodyBytes int
	begin := time.Now()
	err := s.retry("fetch", func() (bool, error) {
		url, etag := s.url, ""
		s.mu.Lock()
		if s.mirror != nil {
			url, etag = s.mirror.url, s.mirror.etag
		}
		s.mu.Unlock()

		resp, data, err := s.do(http.MethodGet, url, etag, nil)
		if err != nil {
			return true, err
		}
		switch {
		case resp.StatusCode == http.StatusNotModified:
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.mirror == nil {
				return false, fmt.Errorf("trapstore: fetch %s: %s to an unconditional request", s.url, resp.Status)
			}
			s.sawNotModified()
			wasDelta, bodyBytes = false, 0
			out = cloneRows(s.mirror.set)
			return false, nil
		case resp.StatusCode == http.StatusOK:
			snap, st, err := decodeEnvelope(data)
			if err != nil {
				return false, fmt.Errorf("trapstore: fetch %s: %w", s.url, err)
			}
			s.mu.Lock()
			defer s.mu.Unlock()
			switch {
			case !snap.Delta:
				s.mirror = &setAt{set: snap.File}
				s.mirror.moveTo(s.url, st)
			case s.mirror == nil || s.mirror.at != SyncState{Epoch: st.Epoch, Generation: snap.Since}:
				// An incremental body applies on top of the mirror it was
				// computed against. The daemon echoes the window (Since) and
				// epoch; anything out of line with our mirror means it cannot
				// be trusted as the delta's base — drop it and retry as a
				// full fetch.
				s.mirror = nil
				return true, fmt.Errorf("trapstore: fetch %s: delta for window e%x-g%d does not match the mirror",
					s.url, st.Epoch, snap.Since)
			default:
				trapfile.Grow(&s.mirror.set, snap.File)
				s.mirror.moveTo(s.url, st)
			}
			wasDelta, bodyBytes = snap.Delta, len(data)
			out = cloneRows(s.mirror.set)
			return false, nil
		case resp.StatusCode >= 500:
			return true, fmt.Errorf("trapstore: fetch %s: server error %s", s.url, resp.Status)
		default:
			return false, fmt.Errorf("trapstore: fetch %s: %s (%s)", s.url, resp.Status, bodyExcerpt(data))
		}
	})
	if err != nil {
		return trapfile.File{Version: trapfile.FormatVersion}, err
	}
	if wasDelta {
		s.sawDelta()
	}
	s.countFetchBytes(bodyBytes)
	s.fetched(time.Since(begin))
	return out, nil
}

// WireStats reports the client's wire accounting: how many fetches were
// full, delta-sized, or 304s, and the body bytes they cost.
func (s *HTTPStore) WireStats() WireStats { return s.wireStats() }

// marshalChunks encodes f into one or more POST bodies, each at most limit
// bytes, halving its rows (the pair list, then the site table) until every
// chunk fits. A single row whose encoding alone exceeds the limit cannot be
// chunked and is an error.
func marshalChunks(f trapfile.File, limit int) ([][]byte, error) {
	payload, err := json.Marshal(envelopeOf(f, SyncState{}))
	if err != nil {
		return nil, fmt.Errorf("marshal: %w", err)
	}
	if len(payload) <= limit {
		return [][]byte{payload}, nil
	}
	mid := rows(f) / 2
	if mid == 0 {
		return nil, fmt.Errorf("payload of %d bytes exceeds the %d-byte chunk limit and cannot be split further", len(payload), limit)
	}
	p, q := min(mid, len(f.Pairs)), max(mid-len(f.Pairs), 0)
	left, right := f, f
	left.Pairs, right.Pairs = f.Pairs[:p], f.Pairs[p:]
	left.Sites, right.Sites = f.Sites[:q], f.Sites[q:]
	chunks, err := marshalChunks(left, limit)
	if err != nil {
		return nil, err
	}
	more, err := marshalChunks(right, limit)
	if err != nil {
		return nil, err
	}
	return append(chunks, more...), nil
}

// Publish implements TrapStore. A trap set whose JSON exceeds
// PublishChunkBytes is split into multiple bounded POSTs — the daemon's
// merge is a commutative, idempotent union, so N partial merges reach the
// same set as one big one, and a daemon-side payload cap (413) can no
// longer make a large set permanently unpublishable. One Publish counts as
// one logical operation in Totals regardless of chunk count.
func (s *HTTPStore) Publish(f trapfile.File) error {
	chunks, err := marshalChunks(f, s.cfg.PublishChunkBytes)
	if err != nil {
		return fmt.Errorf("trapstore: publish %s: %w", s.url, err)
	}
	begin := time.Now()
	for _, payload := range chunks {
		err := s.retry("publish", func() (bool, error) {
			resp, data, err := s.do(http.MethodPost, s.url, "", payload)
			if err != nil {
				return true, err
			}
			switch {
			case resp.StatusCode == http.StatusOK:
				return false, nil
			case resp.StatusCode >= 500:
				return true, fmt.Errorf("trapstore: publish %s: server error %s", s.url, resp.Status)
			case resp.StatusCode == http.StatusBadRequest:
				// The daemon rejected the payload itself (schema mismatch):
				// a data error, not an availability problem.
				return false, fmt.Errorf("trapstore: publish %s: rejected: %s: %w",
					s.url, bodyExcerpt(data), trapfile.ErrCorrupt)
			case resp.StatusCode == http.StatusRequestEntityTooLarge:
				// The daemon's payload cap is below our chunk size — a
				// deployment misconfiguration. Retrying the same bytes cannot
				// help; the operator must align PublishChunkBytes with the
				// daemon's cap.
				return false, fmt.Errorf("trapstore: publish %s: %s — chunk of %d bytes exceeds the daemon's payload cap; lower PublishChunkBytes (%s)",
					s.url, resp.Status, len(payload), bodyExcerpt(data))
			default:
				return false, fmt.Errorf("trapstore: publish %s: %s (%s)", s.url, resp.Status, bodyExcerpt(data))
			}
		})
		if err != nil {
			return err
		}
	}
	s.published(time.Since(begin))
	return nil
}

// Totals implements TrapStore.
func (s *HTTPStore) Totals() trace.StoreTotals { return s.totals() }

// Close implements TrapStore: it cancels the store's context — aborting
// in-flight requests and waking any goroutine parked in a backoff sleep —
// then releases idle connections. Operations after Close fail with an
// ErrUnavailable-wrapped error. Close is idempotent.
func (s *HTTPStore) Close() error {
	s.cancel()
	s.client.CloseIdleConnections()
	return nil
}

// bodyExcerpt renders the first line of an error response for messages.
func bodyExcerpt(data []byte) string {
	data = data[:min(len(data), 200)]
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		data = data[:i]
	}
	if len(data) == 0 {
		return "empty body"
	}
	return string(data)
}
