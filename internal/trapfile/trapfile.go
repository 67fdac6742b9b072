// Package trapfile persists TSVD's dangerous-pair set between test runs
// (§3.4.6 "Multiple testing runs"). Pairs are stored by their stable source
// location keys, not process-local ids, so a trap file written by one test
// process seeds the next.
//
// Save is crash-safe: the new contents are written to a temporary file in
// the same directory, synced, and atomically renamed over the old file. A
// test process killed mid-save (the normal fate of a process whose module
// hit a hard timeout) leaves the previous trap file intact, never a
// truncated one.
//
// Merge is the single union rule for trap sets everywhere they meet: a
// local file absorbing a run's exports, the fleet daemon (cmd/tsvd-trapd)
// absorbing a shard's publish, and a shard folding a daemon snapshot into
// its local seeds all apply the same rule, so every replica of a trap set
// converges to the same bytes regardless of merge order. Grow is that rule
// for a caller that keeps one long-lived normalized set (the daemon, a
// client's mirror): it unions in place without re-sorting and reports what
// the set gained; Merge is built on it. Normalize is the canonical form
// both produce, and Checked the version gate every decoder — LoadFile here,
// the trap-server envelope in internal/trapstore — passes a File through.
package trapfile

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/ids"
	"repro/internal/report"
	"repro/internal/sites"
)

// FormatVersion guards against reading files from incompatible builds. The
// trap-server wire schema (internal/trapstore) carries the same number: a
// daemon and its shards must agree on the pair encoding exactly as two
// consecutive local runs must.
const FormatVersion = 1

// ErrCorrupt marks a trap file (or trap-server payload) that exists but
// cannot be trusted: invalid JSON or a foreign format version. Callers
// distinguish it from transient I/O trouble with errors.Is; cmd/tsvd-run
// maps it to its own exit code.
var ErrCorrupt = errors.New("trapfile: corrupt")

// File is the serialized trap set.
type File struct {
	Version int    `json:"version"`
	Tool    string `json:"tool"`
	Pairs   []Pair `json:"pairs"`
	// Sites is the optional site table: the API metadata for the locations
	// the pairs reference, keyed by the same stable location keys. A file
	// carrying it seeds the next process's site registry (LoadSeed), so
	// reports in run 2 resolve class/method names before the renamed or
	// not-yet-executed call site runs. Files written by older builds simply
	// have none — pairs alone remain a complete seed.
	Sites []sites.Tuple `json:"sites,omitempty"`
}

// Pair is one dangerous pair, identified by location keys.
type Pair struct {
	A string `json:"a"`
	B string `json:"b"`
}

// canonical reports whether rows are already what normalizing them gives:
// every row valid and each strictly after the one before it, so none repeats.
// Every writer in this module sends its rows that way, so the normalizers
// check it in one pass before they pay for a map and a sort.
func canonical[T any](rows []T, valid func(T) bool, less func(a, b T) bool) bool {
	for i, r := range rows {
		if !valid(r) || i > 0 && !less(rows[i-1], r) {
			return false
		}
	}
	return true
}

// normalizeSites canonicalizes a site table the same way normalize does
// pairs: rows without a location key are dropped (nothing to re-intern
// against), duplicates collapse, and the result sorts by the full tuple so
// equal tables serialize to equal bytes.
func normalizeSites(recs []sites.Tuple) []sites.Tuple {
	if len(recs) == 0 {
		return nil
	}
	if canonical(recs, func(t sites.Tuple) bool { return t.Loc != "" }, sites.Tuple.Less) {
		return slices.Clone(recs)
	}
	out := make([]sites.Tuple, 0, len(recs))
	seen := make(map[sites.Tuple]bool, len(recs))
	for _, r := range recs {
		if r.Loc == "" || seen[r] {
			continue
		}
		seen[r] = true
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	if len(out) == 0 {
		return nil
	}
	return out
}

// less orders pairs lexicographically by (A, B) — the canonical order every
// normalized pair list is stored and transmitted in.
func (p Pair) less(q Pair) bool {
	if p.A != q.A {
		return p.A < q.A
	}
	return p.B < q.B
}

// normalize canonicalizes a pair list: empty-key halves drop the pair (a key
// that cannot be re-interned is useless and, worse, every such pair would
// collide on the same empty intern slot), endpoints are ordered A <= B so a
// pair reads the same regardless of which side observed it, duplicates
// collapse to one entry, and the result is sorted by (A, B) so two trap sets
// with the same pairs serialize to the same bytes. Load applies it to
// whatever a file claims, Save to whatever the detector exports, and Merge
// to both inputs, so the invariant holds on every side of every boundary.
func normalize(pairs []Pair) []Pair {
	out := make([]Pair, 0, len(pairs))
	if canonical(pairs, func(p Pair) bool { return p.A != "" && p.A <= p.B }, Pair.less) {
		return append(out, pairs...)
	}
	seen := make(map[Pair]bool, len(pairs))
	for _, p := range pairs {
		if p.A == "" || p.B == "" {
			continue
		}
		if p.A > p.B {
			p.A, p.B = p.B, p.A
		}
		if seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

// Normalize returns f in the canonical form every boundary enforces: current
// Version, pairs and site rows canonicalized into fresh slices. LoadFile
// applies it to whatever a file claims, Save to whatever the detector
// exports, and Grow to whatever it is handed, so the invariant holds on every
// side of every boundary.
func Normalize(f File) File {
	return File{Version: FormatVersion, Tool: f.Tool, Pairs: normalize(f.Pairs), Sites: normalizeSites(f.Sites)}
}

// Checked is the gate every decoded File passes, whichever envelope carried
// it: a foreign format version wraps ErrCorrupt, anything else comes back
// normalized.
func Checked(f File) (File, error) {
	if f.Version != FormatVersion {
		return File{Version: FormatVersion}, fmt.Errorf("version %d, want %d: %w", f.Version, FormatVersion, ErrCorrupt)
	}
	return Normalize(f), nil
}

// missing returns the rows of the canonical in that the canonical set lacks,
// canonical too: a binary search per incoming row.
func missing[T comparable](set, in []T, less func(a, b T) bool) (added []T) {
	for _, r := range in {
		i := sort.Search(len(set), func(i int) bool { return !less(set[i], r) })
		if i == len(set) || set[i] != r {
			added = append(added, r)
		}
	}
	return added
}

// insert folds the canonical rows added, none of which set holds, into the
// canonical set, in place when set has the capacity: one backward pass that
// opens the gaps.
func insert[T any](set, added []T, less func(a, b T) bool) []T {
	i, j := len(set)-1, len(added)-1
	set = append(set, added...)
	for k := len(set) - 1; j >= 0; k-- {
		if i >= 0 && less(added[j], set[i]) {
			set[k] = set[i]
			i--
		} else {
			set[k] = added[j]
			j--
		}
	}
	return set
}

// own points every string of f's rows at one fresh copy of them all. A
// decoder may hand out substrings of a whole request body; a long-lived set
// that kept such a row would keep the body with it.
func own(f File) {
	each := func(do func(s *string)) {
		for i := range f.Pairs {
			do(&f.Pairs[i].A)
			do(&f.Pairs[i].B)
		}
		for i := range f.Sites {
			do(&f.Sites[i].Loc)
			do(&f.Sites[i].Class)
			do(&f.Sites[i].Method)
		}
	}
	var b strings.Builder
	n := 0
	each(func(s *string) { n += len(*s) })
	b.Grow(n)
	each(func(s *string) { b.WriteString(*s) })
	all := b.String()
	each(func(s *string) { *s, all = all[:len(*s)], all[len(*s):] })
}

// Grow is the union rule for a caller that keeps one long-lived set (the
// fleet daemon, a client's mirror of it): it folds in — any File — into
// *set, which must be normalized, reusing set's backing arrays, and returns
// the pairs and site rows the set gained, normalized and labeled like the
// set. in's Tool label wins when it has one. The cost is
// O(len(in)·log len(set) + len(set)): the set is never re-sorted. Merge is
// built on it. What the set keeps of in — the label and the rows it gained —
// is copied into one new string, so the set never keeps alive the buffer in
// was decoded from.
func Grow(set *File, in File) (added File) {
	if in.Tool != "" && in.Tool != set.Tool {
		set.Tool = strings.Clone(in.Tool)
	}
	added = File{Version: FormatVersion, Tool: set.Tool,
		Pairs: missing(set.Pairs, normalize(in.Pairs), Pair.less),
		Sites: missing(set.Sites, normalizeSites(in.Sites), sites.Tuple.Less)}
	own(added)
	set.Pairs = insert(set.Pairs, added.Pairs, Pair.less)
	set.Sites = insert(set.Sites, added.Sites, sites.Tuple.Less)
	return added
}

// New assembles a normalized File from a detector's exported pairs — the
// value Save and TrapStore.Publish consume.
func New(tool string, pairs []report.PairKey) File {
	return File{Version: FormatVersion, Tool: tool, Pairs: FromKeys(pairs)}
}

// NewWithSites is New plus the site table: reg's registered sites by stable
// tuple, so the file carries the metadata to seed the next run's registry
// (LoadSeed). A nil registry degrades to New.
func NewWithSites(tool string, pairs []report.PairKey, reg *sites.Registry) File {
	f := New(tool, pairs)
	f.Sites = normalizeSites(reg.Tuples())
	return f
}

// Merge unions two trap sets deterministically: both sides are normalized,
// the union is sorted by (A, B), and the newer side's Tool label wins when
// it has one. Site tables union by stable tuple, so a legacy string-keyed
// file (pairs only, no table) merges losslessly with a site-aware one: its
// pairs survive on their location keys and simply contribute no metadata
// rows. Merge is commutative up to the Tool label and associative, so a
// daemon merging shard publishes in any arrival order, and a shard merging
// a daemon snapshot into local seeds, reach identical pair lists.
func Merge(older, newer File) File {
	merged := Normalize(older)
	Grow(&merged, newer)
	return merged
}

// FromKeys converts in-memory pair keys to their persistent form. Pairs with
// un-interned locations (no stable key) are dropped — they cannot be
// re-identified in another process anyway.
func FromKeys(pairs []report.PairKey) []Pair {
	out := make([]Pair, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, Pair{A: p.A.Key(), B: p.B.Key()})
	}
	return normalize(out)
}

// ToKeys re-interns persistent pairs into this process's OpID space.
func ToKeys(pairs []Pair) []report.PairKey {
	out := make([]report.PairKey, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, report.KeyOf(ids.InternKey(p.A), ids.InternKey(p.B)))
	}
	return out
}

// testHookAfterWrite, when non-nil, runs after the temp file is durably
// written and before the rename. Tests return an error to simulate a
// process killed at the most dangerous instant: Save stops right there,
// deliberately leaving the temp file behind — a killed process cleans up
// nothing.
var testHookAfterWrite func(tmpPath string) error

// SetTestHookAfterWrite installs (or, with nil, removes) the crash hook every
// Save runs between the durable temp-file write and the atomic rename — the
// narrowest window a kill can hit. The hook returning an error makes Save
// stop right there, leaving the temp file behind exactly as a killed process
// would. It exists so packages that build on Save (trapstore's snapshot
// persister) can stage the same kill-9 simulation the trapfile tests use;
// production code must never call it.
func SetTestHookAfterWrite(fn func(tmpPath string) error) { testHookAfterWrite = fn }

// Save atomically replaces the trap file at path with f, normalized. The
// Version field is stamped by Save — callers build f with New or a literal
// and never track the format version themselves. The previous contents stay
// readable until the very last step, a same-directory rename.
func Save(path string, f File) error {
	data, err := json.MarshalIndent(Normalize(f), "", "  ")
	if err != nil {
		return fmt.Errorf("trapfile: marshal: %w", err)
	}
	return SaveBytes(path, append(data, '\n'))
}

// SaveBytes atomically replaces the file at path with data using the same
// crash-safe temp-write/fsync/rename dance as Save, including the kill-9
// test hook. It exists for callers that persist a superset of the trap-file
// schema (trapstore.SnapshotPersister stores sync state alongside the pairs)
// and need identical durability without re-implementing the dance.
func SaveBytes(path string, data []byte) error {
	// The temp file must live in the target's directory: rename(2) is only
	// atomic within one filesystem.
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("trapfile: create temp in %s: %w", dir, err)
	}
	tmpPath := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(fmt.Errorf("trapfile: write %s: %w", tmpPath, err))
	}
	// Sync before rename: otherwise a crash shortly after Save could leave
	// the *renamed* file empty on disk — the exact torn state the temp-file
	// dance exists to prevent.
	if err := tmp.Sync(); err != nil {
		return cleanup(fmt.Errorf("trapfile: sync %s: %w", tmpPath, err))
	}
	if err := tmp.Close(); err != nil {
		return cleanup(fmt.Errorf("trapfile: close %s: %w", tmpPath, err))
	}
	if testHookAfterWrite != nil {
		if err := testHookAfterWrite(tmpPath); err != nil {
			return err
		}
	}
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("trapfile: rename %s: %w", path, err)
	}
	return nil
}

// LoadFile reads a trap set from path in its wire form, normalized. A
// missing file yields an empty current-version File and no error — the
// first run of a test has no trap file. Unparseable contents and foreign
// format versions wrap ErrCorrupt: the file exists but cannot be trusted.
func LoadFile(path string) (File, error) {
	empty := File{Version: FormatVersion}
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return empty, nil
		}
		return empty, fmt.Errorf("trapfile: read %s: %w", path, err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return empty, fmt.Errorf("trapfile: parse %s: %w: %v", path, ErrCorrupt, err)
	}
	if f, err = Checked(f); err != nil {
		return empty, fmt.Errorf("trapfile: %s: %w", path, err)
	}
	return f, nil
}

// Load reads a trap set from path and re-interns it into this process's
// OpID space — the seed-set form core.WithInitialTraps consumes. Pairs are
// normalized on the way in (empty keys dropped, endpoints ordered,
// duplicates collapsed, sorted): trap files are hand-editable JSON, and a
// malformed pair must degrade the seed set, not corrupt the detector's trap
// set.
func Load(path string) ([]report.PairKey, error) { return LoadSeed(path, nil) }

// LoadSeed is Load plus site-registry seeding: the file's site table is
// registered into reg (interning each row's location key into this process's
// OpID space), so run 2 resolves the API metadata of seeded pairs before —
// or without — the corresponding call sites executing. reg may be nil to
// skip seeding; legacy files without a table seed nothing.
func LoadSeed(path string, reg *sites.Registry) ([]report.PairKey, error) {
	f, err := LoadFile(path)
	if err != nil {
		return nil, err
	}
	if reg != nil {
		for _, t := range f.Sites {
			reg.Intern(t)
		}
	}
	if len(f.Pairs) == 0 {
		return nil, nil
	}
	return ToKeys(f.Pairs), nil
}
