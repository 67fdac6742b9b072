package trapstore

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/sites"
	"repro/internal/trapfile"
)

// genLog is the trap set as one process holds it: the canonical sorted view
// a full snapshot shares, the same rows once more in arrival order, and one
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

// snapshot returns the whole set, shared: Grow never writes into its rows.
func (l *genLog) snapshot() trapfile.File { return l.set }

// window returns what a holder of the set as of since lacks: the rows that
// arrived after it (delta=true), capacity-capped subslices of the append-only
// arrival order, when since is a generation of this log, the whole set
// otherwise — a foreign epoch, or a cursor from before the log was started.
func (l *genLog) window(since SyncState) (f trapfile.File, delta bool) {
	i, ok := slices.BinarySearchFunc(l.marks, since.Generation,
		func(m genMark, g uint64) int { return cmp.Compare(m.gen, g) })
	if !ok || since.Epoch != l.epoch {
		return l.snapshot(), false
	}
	f = l.set
	f.Pairs, f.Sites = l.pairs[l.marks[i].pairs:len(l.pairs):len(l.pairs)], l.sites[l.marks[i].sites:len(l.sites):len(l.sites)]
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
// mismatch is rejected, never coerced. What this package writes is decoded
// by scanEnvelope into substrings of one copy of data; anything else goes
// through encoding/json.
func decodeEnvelope(data []byte) (envelope, SyncState, error) {
	env, ok := scanEnvelope(string(data))
	if !ok {
		if err := json.Unmarshal(data, &env); err != nil {
			return envelope{}, SyncState{}, fmt.Errorf("%w: %v", trapfile.ErrCorrupt, err)
		}
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

// Keys scanEnvelope knows, at each level, in the exact case the encoders
// write them.
var (
	envelopeKeys = []string{"version", "tool", "pairs", "sites", "generation", "epoch", "delta", "since"}
	pairKeys     = []string{"a", "b"}
	siteKeys     = []string{"loc", "class", "method", "write"}
)

// scanEnvelope decodes s when it is in a subset of JSON on which it agrees
// with encoding/json: an object of known keys in their exact case, each at
// most once; strings of ASCII 0x20–0x7F without a backslash; unsigned
// integers without sign, fraction, exponent or leading zero, in range; true
// and false; whitespace between tokens and nothing after the object. Every
// string it returns is a substring of s, so a body of n rows costs the
// O(log n) allocations of the growing row slices. ok is false for anything
// outside the subset, which encoding/json must then decide.
func scanEnvelope(s string) (env envelope, ok bool) {
	sc := scanner{s: s}
	ok = sc.object(envelopeKeys, func(key string) (ok bool) {
		switch key {
		case "version":
			var v uint64
			v, ok = sc.uint(math.MaxInt)
			env.Version = int(v)
		case "tool":
			env.Tool, ok = sc.str()
		case "pairs":
			env.Pairs = []trapfile.Pair{}
			ok = sc.array(func() bool {
				env.Pairs = append(env.Pairs, trapfile.Pair{})
				return sc.object(pairKeys, func(key string) (ok bool) {
					p := &env.Pairs[len(env.Pairs)-1]
					if key == "a" {
						p.A, ok = sc.str()
					} else {
						p.B, ok = sc.str()
					}
					return ok
				})
			})
		case "sites":
			env.Sites = []sites.Tuple{}
			ok = sc.array(func() bool {
				env.Sites = append(env.Sites, sites.Tuple{})
				return sc.object(siteKeys, func(key string) (ok bool) {
					t := &env.Sites[len(env.Sites)-1]
					switch key {
					case "loc":
						t.Loc, ok = sc.str()
					case "class":
						t.Class, ok = sc.str()
					case "method":
						t.Method, ok = sc.str()
					case "write":
						t.Write, ok = sc.bool()
					}
					return ok
				})
			})
		case "generation":
			env.Generation, ok = sc.uint(math.MaxUint64)
		case "epoch":
			env.Epoch, ok = sc.str()
		case "delta":
			env.Delta, ok = sc.bool()
		case "since":
			env.Since, ok = sc.uint(math.MaxUint64)
		}
		return ok
	})
	if !ok || !sc.end() {
		return envelope{}, false
	}
	return env, true
}

// scanner reads tokens of s from offset i on; each method skips the
// whitespace before its token and reports false for anything it does not
// accept.
type scanner struct {
	s string
	i int
}

func (sc *scanner) space() {
	for sc.i < len(sc.s) {
		switch sc.s[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
		default:
			return
		}
	}
}

// end reports whether nothing but whitespace is left.
func (sc *scanner) end() bool {
	sc.space()
	return sc.i == len(sc.s)
}

// eat consumes the byte c.
func (sc *scanner) eat(c byte) bool {
	sc.space()
	if sc.i < len(sc.s) && sc.s[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// str reads a string of ASCII 0x20–0x7F with no escape, returned as a
// substring of s.
func (sc *scanner) str() (string, bool) {
	if !sc.eat('"') {
		return "", false
	}
	for j := sc.i; j < len(sc.s); j++ {
		switch c := sc.s[j]; {
		case c == '"':
			v := sc.s[sc.i:j]
			sc.i = j + 1
			return v, true
		case c < 0x20 || c > 0x7f || c == '\\':
			return "", false
		}
	}
	return "", false
}

// uint reads an unsigned integer no larger than max. A fraction or an
// exponent after the digits is left for the caller, which expects a
// separator there and fails.
func (sc *scanner) uint(max uint64) (uint64, bool) {
	sc.space()
	j := sc.i
	for j < len(sc.s) && '0' <= sc.s[j] && sc.s[j] <= '9' {
		j++
	}
	digits := sc.s[sc.i:j]
	sc.i = j
	v, err := strconv.ParseUint(digits, 10, 64)
	return v, err == nil && v <= max && (digits[0] != '0' || digits == "0")
}

func (sc *scanner) bool() (v, ok bool) {
	sc.space()
	switch rest := sc.s[sc.i:]; {
	case strings.HasPrefix(rest, "true"):
		sc.i += len("true")
		return true, true
	case strings.HasPrefix(rest, "false"):
		sc.i += len("false")
		return false, true
	}
	return false, false
}

// array reads an array, calling elem to read each element.
func (sc *scanner) array(elem func() bool) bool {
	if !sc.eat('[') {
		return false
	}
	if sc.eat(']') {
		return true
	}
	for elem() {
		if sc.eat(']') {
			return true
		}
		if !sc.eat(',') {
			return false
		}
	}
	return false
}

// object reads an object whose keys are among keys, each at most once,
// calling field with the key to read its value.
func (sc *scanner) object(keys []string, field func(key string) bool) bool {
	if !sc.eat('{') {
		return false
	}
	if sc.eat('}') {
		return true
	}
	var seen uint
	for {
		key, ok := sc.str()
		k := slices.Index(keys, key)
		if !ok || k < 0 || seen&(1<<k) != 0 || !sc.eat(':') || !field(key) {
			return false
		}
		seen |= 1 << k
		if sc.eat('}') {
			return true
		}
		if !sc.eat(',') {
			return false
		}
	}
}
