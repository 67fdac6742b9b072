package tsvd

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sites"
	"repro/internal/trapfile"
)

// ErrNotInstalled marks operations that need an installed session when there
// is none (or it has been closed). Check with errors.Is.
var ErrNotInstalled = errors.New("tsvd: no session installed")

// Session is one installed detector: the unit of detection for a test
// process. Install wires a Session into the process-wide slot that
// containers created through this package report to; the Session handle
// then scopes everything the run produced — bugs, counters, the dangerous
// pairs to persist for the next run.
//
// A Session's collected state outlives its installation: after Close (or
// after a later Install supersedes it) Bugs, Stats and SaveTraps still
// answer from the final state, so a run can always persist what it found.
// Only new detection stops: containers created afterwards report to the
// superseding session (or to a no-op detector).
type Session struct {
	det    Detector
	closed atomic.Bool
}

// current is the installed session; nil until Install succeeds.
var current atomic.Pointer[Session]

// nop backs Default before any Install and after the last Close.
var nop = core.NewNop()

// Install builds a detector for cfg and installs it as a new Session: the
// process-wide detector used by containers created through this package
// from now on. A previously installed session is superseded and closed —
// its collected bugs and traps remain readable on its own handle, so
// nothing discovered is orphaned, but new containers report only to the
// new session.
//
// The error is nil unless cfg is invalid; callers that use the package-level
// accessors can ignore the session handle.
func Install(cfg Config, opts ...core.Option) (*Session, error) {
	det, err := core.New(cfg, opts...)
	if err != nil {
		return nil, err
	}
	s := &Session{det: det}
	if old := current.Swap(s); old != nil {
		old.closed.Store(true)
	}
	return s, nil
}

// InstallWithTrapFile is Install seeded from a previous run's trap file
// (§3.4.6); a missing file is not an error. The file's site table (if it has
// one) seeds the session's site registry, so reports on seeded pairs resolve
// API metadata from run 1's interning rather than waiting for the call site
// to execute again.
func InstallWithTrapFile(cfg Config, path string, opts ...core.Option) (*Session, error) {
	if cfg.Sites == nil {
		cfg.Sites = sites.New()
	}
	pairs, err := trapfile.LoadSeed(path, cfg.Sites)
	if err != nil {
		return nil, err
	}
	if len(pairs) > 0 {
		opts = append(opts, core.WithInitialTraps(pairs))
	}
	return Install(cfg, opts...)
}

// Current returns the installed session, or nil if none is installed.
func Current() *Session { return current.Load() }

// Default returns the installed session's detector (a no-op detector when
// no session is installed).
func Default() Detector {
	if det := installed(); det != nil {
		return det
	}
	return nop
}

// installed is what this package's constructors hand a new container,
// scheduler or mutex: the installed session's detector, or nil when there is
// none. A nil detector makes the proxy skip its prologue (thread id, call
// site) altogether, where the no-op detector would have it pay for both on
// every call just to reach a method that does nothing.
func installed() Detector {
	if s := current.Load(); s != nil {
		return s.det
	}
	return nil
}

// Detector returns the session's detector, for wiring collections or
// schedulers to this session explicitly rather than to whatever is
// installed.
func (s *Session) Detector() Detector { return s.det }

// Bugs returns the unique violations this session has caught, deduplicated
// by static location pair.
func (s *Session) Bugs() []report.Bug { return s.det.Reports().Bugs() }

// Stats returns a snapshot of this session's detector counters.
func (s *Session) Stats() core.Stats { return s.det.Stats() }

// Snapshot is a point-in-time view of a session's live detection state,
// safe to take mid-run: counters, the current trap-set occupancy, and the
// number of unique violations caught so far.
type Snapshot struct {
	// Stats is the detector's counter snapshot.
	Stats core.Stats
	// TrapSetPairs is the number of dangerous pairs currently trapped
	// (0 for detector variants without a trap set).
	TrapSetPairs int
	// Bugs is the number of unique violations caught so far, deduplicated
	// by static location pair.
	Bugs int
}

// Snapshot returns a live view of the session's detection state. It is safe
// to call concurrently with detection — the counters are a consistent
// lock-free snapshot — so a watchdog or progress reporter can poll it while
// the instrumented tests are still running.
func (s *Session) Snapshot() Snapshot {
	snap := Snapshot{
		Stats: s.det.Stats(),
		Bugs:  len(s.det.Reports().Bugs()),
	}
	if ts, ok := s.det.(interface{ TrapSetSize() int }); ok {
		snap.TrapSetPairs = ts.TrapSetSize()
	}
	return snap
}

// ExportTraps returns this session's current dangerous-pair set.
func (s *Session) ExportTraps() []report.PairKey { return s.det.ExportTraps() }

// SaveTraps persists this session's dangerous pairs to a trap file for the
// next run, with the session's site table alongside so the next process can
// resolve the pairs' API metadata up front. It works on a closed session
// too: a superseded or finished run may still hand its discoveries forward.
func (s *Session) SaveTraps(path string) error {
	return trapfile.Save(path, trapfile.NewWithSites("TSVD", s.det.ExportTraps(), s.det.Sites()))
}

// Sites returns the session's site registry: the intern table instrumented
// call sites register into (RegisterSite) and reports resolve API metadata
// from.
func (s *Session) Sites() *SiteRegistry { return s.det.Sites() }

// Closed reports whether the session has been closed or superseded.
func (s *Session) Closed() bool { return s.closed.Load() }

// Close detaches the session: if it is the installed one, the process-wide
// detector reverts to a no-op. Collected bugs, stats and traps remain
// readable on the handle. Close is idempotent, and closing a session that a
// later Install already superseded only marks the handle closed.
func (s *Session) Close() error {
	s.closed.Store(true)
	current.CompareAndSwap(s, nil)
	return nil
}

// --- Package-level accessor over the installed session ---

// SaveTrapFile persists the installed session's dangerous pairs for the
// next run. Without an installed session it fails with ErrNotInstalled —
// silently writing an empty trap file would erase the previous run's seeds.
func SaveTrapFile(path string) error {
	s := current.Load()
	if s == nil {
		return fmt.Errorf("tsvd: save trap file %s: %w", path, ErrNotInstalled)
	}
	return s.SaveTraps(path)
}
