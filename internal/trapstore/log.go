package trapstore

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/sites"
	"repro/internal/trapfile"
)

// genLog is the trap set as one process holds it: the canonical sorted view
// a full snapshot copies, the same rows once more in arrival order, and one
// offset into that order per generation. The daemon's Memory serves ?since=
// windows from it: "the log from generation g".
// Every row enters the arrival order once, so the log is never larger than
// the set and nothing is ever compacted away.
type genLog struct {
	epoch uint64
	// set is normalized; trapfile.Grow is the only thing that changes it.
	set trapfile.File
	// pairs and sites are the rows the set gained since the log was started,
	// in arrival order; marks[i] says how many of each had arrived when the
	// set became generation marks[i].gen. marks ascends and is never empty:
	// marks[0] is the state the log was started at, before which no window
	// can be served.
	pairs []trapfile.Pair
	sites []sites.Tuple
	marks []genMark
}

type genMark struct {
	gen          uint64
	pairs, sites int
}

// newGenLog starts a log at the normalized set, called generation gen of
// epoch.
func newGenLog(epoch uint64, set trapfile.File, gen uint64) genLog {
	return genLog{epoch: epoch, set: set, marks: []genMark{{gen: gen}}}
}

func (l *genLog) state() SyncState {
	return SyncState{Epoch: l.epoch, Generation: l.marks[len(l.marks)-1].gen}
}

// grow folds in into the set and, when the set gained anything, marks the
// result as generation gen. It returns what the set gained.
func (l *genLog) grow(in trapfile.File, gen uint64) (added trapfile.File) {
	added = trapfile.Grow(&l.set, in)
	if rows(added) > 0 {
		l.pairs = append(l.pairs, added.Pairs...)
		l.sites = append(l.sites, added.Sites...)
		l.marks = append(l.marks, genMark{gen: gen, pairs: len(l.pairs), sites: len(l.sites)})
	}
	return added
}

// rows counts what f holds; a merge grew the set when what it added has any.
func rows(f trapfile.File) int { return len(f.Pairs) + len(f.Sites) }

// snapshot returns a copy of the whole set.
func (l *genLog) snapshot() trapfile.File { return cloneRows(l.set) }

// cloneRows returns f with its rows copied, for a caller free to mutate them.
func cloneRows(f trapfile.File) trapfile.File {
	f.Pairs, f.Sites = slices.Clone(f.Pairs), slices.Clone(f.Sites)
	return f
}

// window returns what a holder of the set as of since lacks: a copy of the
// rows that arrived after it (delta=true) when since is a generation of this
// log, the whole set otherwise — a foreign epoch, or a cursor from before the
// log was started.
func (l *genLog) window(since SyncState) (f trapfile.File, delta bool) {
	i, ok := slices.BinarySearchFunc(l.marks, since.Generation,
		func(m genMark, g uint64) int { return cmp.Compare(m.gen, g) })
	if !ok || since.Epoch != l.epoch {
		return l.snapshot(), false
	}
	f = l.set
	f.Pairs, f.Sites = slices.Clone(l.pairs[l.marks[i].pairs:]), slices.Clone(l.sites[l.marks[i].sites:])
	return f, true
}

// envelope is the one JSON shape of a trap set wherever it leaves the
// process: the GET /v1/traps body, the POST payload and the daemon's snapshot
// file. It is a trapfile.File — same keys, same FormatVersion, so
// trapfile.LoadFile reads a daemon snapshot — plus the sync state it was
// taken at. Generation and Epoch are server-assigned and ignored on POST. A
// Delta=true body carries only the rows added after the requested cursor;
// Since echoes the cursor's generation so the client can verify the window
// lines up with its mirror before applying it.
type envelope struct {
	trapfile.File
	Generation uint64 `json:"generation"`
	Epoch      string `json:"epoch,omitempty"` // hex; "" from pre-epoch daemons and files
	Delta      bool   `json:"delta,omitempty"`
	Since      uint64 `json:"since,omitempty"`
}

// envelopeOf stamps f with the state it was taken at.
func envelopeOf(f trapfile.File, st SyncState) envelope {
	f.Version = trapfile.FormatVersion
	return envelope{File: f, Generation: st.Generation, Epoch: st.epochHex()}
}

// decodeEnvelope is the only way bytes from outside the process become a
// trap set: decode, version check, epoch parse, normalize. Every failure
// wraps trapfile.ErrCorrupt — the bytes exist but cannot be trusted, and a
// mismatch is rejected, never coerced.
func decodeEnvelope(data []byte) (envelope, SyncState, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return envelope{}, SyncState{}, fmt.Errorf("%w: %v", trapfile.ErrCorrupt, err)
	}
	f, err := trapfile.Checked(env.File)
	if err != nil {
		return envelope{}, SyncState{}, err
	}
	env.File = f
	st := SyncState{Generation: env.Generation}
	if env.Epoch != "" {
		if st.Epoch, err = strconv.ParseUint(env.Epoch, 16, 64); err != nil {
			return envelope{}, SyncState{}, fmt.Errorf("epoch %q: %w", env.Epoch, trapfile.ErrCorrupt)
		}
	}
	return env, st, nil
}
