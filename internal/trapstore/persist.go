package trapstore

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/trapfile"
)

// SnapshotPersister writes a daemon's merged trap set and sync state to one
// snapshot file with the crash-safety of trapfile.Save (temp file in the
// target directory, fsync, atomic rename — a process killed mid-save leaves
// the previous snapshot intact) plus the two properties the daemon's ack
// contract needs on top:
//
//   - Saves are serialized. Concurrent merge handlers may race to persist;
//     without a lock their temp-file renames could land in either order.
//   - Saves are generation-monotone within an epoch. A save carrying an
//     older generation than one already on disk under the same epoch is
//     skipped: the newer snapshot is a superset (the merged set is
//     grow-only within a daemon lifetime), so letting a slow, stale writer
//     win the rename would silently regress the file below a state the
//     daemon already acknowledged to a client. A save under a *different*
//     epoch is always accepted — generations from different boots are not
//     comparable, and the restarted daemon's restored generation is already
//     at or above the old epoch's high-water mark anyway (Memory.Restore).
//
// Persisting the generation is what keeps it monotone across restarts: the
// next boot restores it via Load + Memory.Restore instead of starting near
// zero, so no two daemon lifetimes ever ack the same generation number for
// different sets (the restart ETag-collision bug). The epoch is persisted
// for lineage — Load reports which boot wrote the snapshot — but is never
// reused as the live epoch: a kill-9 can land between a client-observed
// merge and its save, so only a fresh epoch per boot makes cached ETags
// from the previous lifetime safely stale.
type SnapshotPersister struct {
	mu      sync.Mutex
	path    string
	last    SyncState
	haveGen bool
}

// NewSnapshotPersister returns a persister for the snapshot file at path.
// The file need not exist yet.
func NewSnapshotPersister(path string) *SnapshotPersister {
	return &SnapshotPersister{path: path}
}

// Path returns the snapshot file path.
func (p *SnapshotPersister) Path() string { return p.path }

// Load reads the current snapshot and the sync state it was saved under —
// the daemon's startup seed for Memory.Restore. A missing file is an empty
// set with a zero state; unparseable contents wrap trapfile.ErrCorrupt, and
// the daemon refuses to start rather than silently replacing the fleet's
// aggregated pairs with an empty set.
func (p *SnapshotPersister) Load() (trapfile.File, SyncState, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	empty := trapfile.File{Version: trapfile.FormatVersion}
	data, err := os.ReadFile(p.path)
	if err != nil {
		if os.IsNotExist(err) {
			return empty, SyncState{}, nil
		}
		return empty, SyncState{}, fmt.Errorf("trapstore: read snapshot %s: %w", p.path, err)
	}
	// Decoding normalizes the pairs exactly as trapfile.LoadFile would:
	// hand-edited snapshots must not smuggle in denormalized pairs.
	snap, st, err := decodeEnvelope(data)
	if err != nil {
		return empty, SyncState{}, fmt.Errorf("trapstore: snapshot %s: %w", p.path, err)
	}
	return snap.File, st, nil
}

// Save persists f, stamped with the sync state that produced it. Stale
// saves (st.Generation at or below the last persisted generation of the
// same epoch) return nil without touching the file: the bytes on disk
// already reflect a newer — and therefore superset — state.
func (p *SnapshotPersister) Save(f trapfile.File, st SyncState) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.haveGen && st.Epoch == p.last.Epoch && st.Generation <= p.last.Generation {
		return nil
	}
	data, err := json.MarshalIndent(envelopeOf(trapfile.Normalize(f), st), "", "  ")
	if err != nil {
		return fmt.Errorf("trapstore: marshal snapshot: %w", err)
	}
	if err := trapfile.SaveBytes(p.path, append(data, '\n')); err != nil {
		return err
	}
	p.last, p.haveGen = st, true
	return nil
}
