package trapstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"repro/internal/sites"
	"repro/internal/trapfile"
)

// SnapshotPersister makes a daemon's merged trap set and sync state durable
// in two files: a snapshot at path (the envelope as indented JSON, replaced by
// trapfile.SaveBytes — temp file, fsync, atomic rename, so a process killed
// mid-save leaves the previous one intact) and an append log at path+".log".
// A Save that only grew the set appends the rows it added as one record —
// four bytes of little-endian body length, four of the body's IEEE CRC-32,
// the body: the envelope with delta set and since naming the generation it
// extends — and fsyncs the log. Every other Save compacts: it rewrites the
// snapshot, then empties the log. That is the first Save of a persister value
// or of an epoch (a restarted daemon never appends to a previous boot's log,
// so a torn tail is discarded, not repaired), a Save whose set is not the
// last one grown, a Save after a failed append, and a Save that finds the log
// as large as the snapshot (at most twice the bytes of always rewriting).
// Either way Save returns nil only once the set is recoverable from fsync'd bytes.
//
// Saves are serialized, and generation-monotone within an epoch: concurrent
// merge handlers reach Save out of order, and a stale writer let through would
// regress the files below a state already acknowledged to a client (the set
// only grows within a daemon lifetime, so the newer state is a superset).
// Generations of different boots are not comparable: a save under a new epoch
// is always accepted. Persisting the generation keeps it monotone across
// restarts (Load + Memory.Restore); the epoch is persisted for lineage, never
// reused — a kill-9 can land between a merge a client saw and its save, and
// only a fresh epoch per boot makes the old lifetime's ETags stale.
type SnapshotPersister struct {
	mu      sync.Mutex
	path    string
	last    SyncState
	haveGen bool
	held    trapfile.File // own normalized copy of what the two files hold
	// log is open for appending; nil until the first Save and after a failed append.
	log               *os.File
	logSize, snapSize int
}

// NewSnapshotPersister returns a persister for the snapshot file at path.
// The file need not exist yet.
func NewSnapshotPersister(path string) *SnapshotPersister { return &SnapshotPersister{path: path} }

// Path returns the snapshot file path.
func (p *SnapshotPersister) Path() string { return p.path }

// Load reads what a reboot finds — the snapshot with the log replayed over it —
// and the sync state it ends at: the seed for Memory.Restore. It writes nothing.
// A missing snapshot is an empty set at the zero state; an unparseable one wraps
// trapfile.ErrCorrupt: the daemon refuses to start rather than lose the fleet's pairs.
func (p *SnapshotPersister) Load() (trapfile.File, SyncState, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	empty := trapfile.File{Version: trapfile.FormatVersion}
	// Log first: a compaction renames the snapshot, then empties the log, so a
	// reader racing one pairs an old log with the new snapshot, never the reverse.
	log, err := os.ReadFile(p.path + ".log")
	if err != nil && !os.IsNotExist(err) {
		return empty, SyncState{}, fmt.Errorf("trapstore: read log: %w", err)
	}
	data, err := os.ReadFile(p.path)
	if os.IsNotExist(err) {
		return empty, SyncState{}, nil
	} else if err != nil {
		return empty, SyncState{}, fmt.Errorf("trapstore: read snapshot %s: %w", p.path, err)
	}
	snap, st, err := decodeEnvelope(data)
	if err != nil {
		return empty, SyncState{}, fmt.Errorf("trapstore: snapshot %s: %w", p.path, err)
	}
	st = replay(&snap.File, st, log)
	return snap.File, st, nil
}

// replay grows set, at st, by log's records and returns the last one's state. It
// stops at the first that is short, oversized, CRC-failing, undecodable or out of
// sequence: a kill-9 mid-append tears the tail, a record never acknowledged.
func replay(set *trapfile.File, st SyncState, log []byte) SyncState {
	for len(log) >= 8 {
		n, sum := binary.LittleEndian.Uint32(log), binary.LittleEndian.Uint32(log[4:])
		if uint64(n) > uint64(len(log)-8) || crc32.ChecksumIEEE(log[8:8+n]) != sum {
			break
		}
		rec, at, err := decodeEnvelope(log[8 : 8+n])
		fresh := at.Generation > st.Generation // else a compaction died before it emptied the log
		if err != nil || !rec.Delta || at.Epoch != st.Epoch || fresh && rec.Since != st.Generation {
			break
		}
		if log = log[8+n:]; fresh {
			trapfile.Grow(set, rec.File)
			st = at
		}
	}
	return st
}

// Save persists f, stamped with the sync state that produced it. Stale saves
// (at or below the last persisted generation of the same epoch) return nil
// without touching the files: disk already holds a newer, superset state.
func (p *SnapshotPersister) Save(f trapfile.File, st SyncState) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.haveGen && st.Epoch == p.last.Epoch && st.Generation <= p.last.Generation {
		return nil
	}
	if p.log != nil && st.Epoch == p.last.Epoch && p.logSize < p.snapSize {
		added, ok := grownBy(p.held, f)
		if !ok { // normalizing cures a non-canonical f, not one that lost rows
			f = trapfile.Normalize(f)
			added, ok = grownBy(p.held, f)
		}
		if ok {
			return p.append(added, st)
		}
	}
	return p.compact(trapfile.Normalize(f), st)
}

// grownBy returns the rows f holds beyond have, and whether f is have grown: same
// label, canonical rows (ascending, no empty key, A ≤ B) that include all of have's.
func grownBy(have, f trapfile.File) (added trapfile.File, ok bool) {
	pairs, okPairs := newRows(have.Pairs, f.Pairs,
		func(p, q trapfile.Pair) bool { return p.A < q.A || p.A == q.A && p.B < q.B },
		func(p trapfile.Pair) bool { return p.A != "" && p.A <= p.B })
	rows, okSites := newRows(have.Sites, f.Sites, sites.Tuple.Less, func(t sites.Tuple) bool { return t.Loc != "" })
	return trapfile.File{Tool: f.Tool, Pairs: pairs, Sites: rows}, okPairs && okSites && f.Tool == have.Tool
}

// newRows is grownBy for one kind of row: consecutive rows of have are in order as have is, others are checked.
func newRows[T comparable](have, got []T, less func(a, b T) bool, valid func(T) bool) (added []T, ok bool) {
	j, wasNew := 0, true
	for i, r := range got {
		isNew := j == len(have) || have[j] != r
		if (isNew || wasNew) && (!valid(r) || i > 0 && !less(got[i-1], r)) {
			return nil, false // not canonical
		}
		if wasNew = isNew; isNew {
			added = append(added, r)
		} else {
			j++
		}
	}
	return added, j == len(have) // else got, ascending, passed have[j] by
}

// append makes added, the rows that take the held set to st, durable as one record.
func (p *SnapshotPersister) append(added trapfile.File, st SyncState) error {
	env := envelopeOf(added, st)
	env.Delta, env.Since = true, p.last.Generation
	body, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("trapstore: marshal log record: %w", err)
	}
	rec := binary.LittleEndian.AppendUint32(make([]byte, 0, 8+len(body)), uint32(len(body)))
	rec = append(binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(body)), body...)
	if _, err = p.log.Write(rec); err == nil {
		err = p.log.Sync()
	}
	if err != nil {
		p.log.Close()
		p.log = nil
		return fmt.Errorf("trapstore: append to %s.log: %w", p.path, err)
	}
	trapfile.Grow(&p.held, added)
	p.last, p.logSize = st, p.logSize+len(rec)
	return nil
}

// compact replaces the snapshot with f — normalized, and from here on the held
// copy — then empties the log, without an fsync: replay skips what might survive.
func (p *SnapshotPersister) compact(f trapfile.File, st SyncState) error {
	data, err := json.MarshalIndent(envelopeOf(f, st), "", "  ")
	if err != nil {
		return fmt.Errorf("trapstore: marshal snapshot: %w", err)
	}
	if err := trapfile.SaveBytes(p.path, append(data, '\n')); err != nil {
		return err
	}
	p.held, p.last, p.haveGen, p.snapSize, p.logSize = f, st, true, len(data), 0
	if p.log != nil {
		p.log.Close()
	}
	if p.log, err = os.OpenFile(p.path+".log", os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o600); err != nil {
		return fmt.Errorf("trapstore: empty the log: %w", err)
	}
	return nil
}

// Close folds a non-empty log into the snapshot and closes it: a stopped daemon's
// snapshot alone is the whole set. A Save after Close starts with a compaction.
func (p *SnapshotPersister) Close() (err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.logSize > 0 {
		err = p.compact(p.held, p.last)
	}
	if p.log != nil {
		err = errors.Join(err, p.log.Close())
		p.log = nil
	}
	return err
}
