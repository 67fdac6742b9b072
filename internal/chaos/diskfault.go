package chaos

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/trapfile"
	"repro/internal/trapstore"
)

// phantomPairs are spelled by the bytes tornLogTail leaves in a log. No
// publish ever carries them, so a loader that trusted a torn record would
// trip phantom-pair.
var phantomPairs = []trapfile.Pair{{A: "chaos/torn.go:1", B: "chaos/torn.go:2"}, {A: "chaos/torn.go:3", B: "chaos/torn.go:4"}}

// genuineRecord returns one whole record exactly as the persister frames it,
// by letting a scratch persister append one: the harness never spells the
// record format itself.
func genuineRecord(dir string) ([]byte, error) {
	scratch := filepath.Join(dir, "scratch-snapshot.json")
	p := trapstore.NewSnapshotPersister(scratch)
	defer p.Close()
	// The first save of a persister is its snapshot, the second an append.
	for gen := 1; gen <= 2; gen++ {
		f := trapfile.File{Tool: chaosTool, Pairs: phantomPairs[:gen]}
		if err := p.Save(f, trapstore.SyncState{Epoch: 1, Generation: uint64(gen)}); err != nil {
			return nil, err
		}
	}
	rec, err := os.ReadFile(scratch + ".log")
	if err == nil && len(rec) < 16 {
		err = fmt.Errorf("the scratch persister appended %d bytes", len(rec))
	}
	return rec, err
}

// restartAfter brings the daemon back up after a staged disk fault. Booting
// at all is the first thing checked; what it booted with — acked ⊆ durable ⊆
// published, on disk and live — is checkInvariants' job right after.
func (f *fleet) restartAfter(act int, m *model, what string) *Violation {
	if err := f.startDaemon(); err != nil {
		return violation(act, "daemon-restart",
			fmt.Sprintf("the daemon failed to restart after %s: %v", what, err), nil)
	}
	m.event("act#%02d daemon killed, %s, restarted", act, what)
	return nil
}

// tornLogTail kills the daemon as if mid-append — of a record it never
// acknowledged — and restarts it over the damaged log.
func (f *fleet) tornLogTail(act int, a action, m *model) *Violation {
	f.killDaemon()
	tail, what := []byte("\xff\xff\xff\x7f chaos: not a log record"), "garbage appended to its log"
	if a.variant == 0 {
		rec, err := genuineRecord(f.dir)
		if err != nil {
			return violation(act, "environment", fmt.Sprintf("minting a log record: %v", err), nil)
		}
		// Where the write stopped varies with the action's position, from an
		// eighth of the record to seven.
		cut := len(rec) * (1 + act%7) / 8
		tail, what = rec[:cut], fmt.Sprintf("the first %d of a record's %d bytes appended to its log", cut, len(rec))
	}
	log, err := os.OpenFile(f.snapPath+".log", os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600)
	if err == nil {
		_, err = log.Write(tail)
		err = errors.Join(err, log.Close())
	}
	if err != nil {
		return violation(act, "environment", fmt.Sprintf("damaging the daemon's log: %v", err), nil)
	}
	return f.restartAfter(act, m, what)
}

// crashMidCompaction kills the daemon inside a compaction and restarts
// it. The compaction is a real one — the first save of a persister value
// always is — run on the dead daemon's files and stopped where a.variant
// says: by the kill hook between the durable temp-file write and the rename,
// or after the rename, by putting back the log it went on to empty.
func (f *fleet) crashMidCompaction(act int, a action, m *model) *Violation {
	f.killDaemon()
	dying := trapstore.NewSnapshotPersister(f.snapPath)
	set, st, err := dying.Load()
	if err != nil {
		return violation(act, "snapshot-file-corrupt",
			fmt.Sprintf("the daemon's files are unreadable before the staged compaction: %v", err), nil)
	}
	log, err := os.ReadFile(f.snapPath + ".log")
	if err != nil && !os.IsNotExist(err) {
		return violation(act, "environment", fmt.Sprintf("reading the daemon's log: %v", err), nil)
	}
	if a.variant == 0 {
		trapfile.SetTestHookAfterWrite(func(string) error { return errors.New("killed") })
		err = dying.Save(set, st)
		trapfile.SetTestHookAfterWrite(nil)
		if err == nil {
			return violation(act, "environment", "the kill hook did not stop the compaction", nil)
		}
		return f.restartAfter(act, m, "its compaction stopped before the rename")
	}
	if err = dying.Save(set, st); err == nil {
		err = os.WriteFile(f.snapPath+".log", log, 0o600)
	}
	// Only the descriptor: the persister believes its log empty and folds nothing.
	if err = errors.Join(err, dying.Close()); err != nil {
		return violation(act, "environment", fmt.Sprintf("staging the daemon's compaction: %v", err), nil)
	}
	return f.restartAfter(act, m, "its compaction stopped before emptying the log")
}
