package trapstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/sites"
	"repro/internal/trapfile"
	"repro/internal/triage"
)

// The fixtures under testdata/parent were captured from the commit before
// the envelope existed (one hand-written struct for the wire, another for
// the disk): a daemon at epoch 1f2e3d4c5b6a7988 that merged fixtureFirst
// in-process and fixtureSecond through an HTTPStore. They pin wire and file
// compatibility in both directions.
const fixtureEpoch = 0x1f2e3d4c5b6a7988

var (
	fixtureFirst  = trapfile.File{Tool: "TSVD", Pairs: pairs("pkg/a.go:10", "pkg/a.go:20", "pkg/b.go:7", "pkg/b.go:9")}
	fixtureSecond = trapfile.File{Tool: "TSVD", Pairs: pairs("pkg/z.go:3", "pkg/c.go:1", "pkg/d.go:5", "pkg/d.go:5")}
	fixtureAdded  = pairs("pkg/c.go:1", "pkg/z.go:3", "pkg/d.go:5", "pkg/d.go:5")
	fixtureFull   = append(pairs("pkg/a.go:10", "pkg/a.go:20", "pkg/b.go:7", "pkg/b.go:9"), fixtureAdded...)
)

func fixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "parent", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestParentFixturesDecode: every shape the parent wrote decodes to the same
// pairs and sync state through the one decode function.
func TestParentFixturesDecode(t *testing.T) {
	for _, tc := range []struct {
		file  string
		st    SyncState
		delta bool
		since uint64
		pairs []trapfile.Pair
	}{
		{"get_full.json", SyncState{Epoch: fixtureEpoch, Generation: 2}, false, 0, fixtureFull},
		{"get_delta.json", SyncState{Epoch: fixtureEpoch, Generation: 2}, true, 1, fixtureAdded},
		{"post_body.json", SyncState{}, false, 0, fixtureAdded},
		{"snapshot.json", SyncState{Epoch: fixtureEpoch, Generation: 2}, false, 0, fixtureFull},
	} {
		env, st, err := decodeEnvelope(fixture(t, tc.file))
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if st != tc.st || env.Delta != tc.delta || env.Since != tc.since || env.Tool != "TSVD" ||
			!reflect.DeepEqual(env.Pairs, tc.pairs) || env.Sites != nil {
			t.Errorf("%s decoded to %+v at %v", tc.file, env, st)
		}
	}
	f, st, err := NewSnapshotPersister(filepath.Join("testdata", "parent", "snapshot.json")).Load()
	if err != nil || st != (SyncState{Epoch: fixtureEpoch, Generation: 2}) || !reflect.DeepEqual(f.Pairs, fixtureFull) {
		t.Errorf("Load of the parent snapshot = %+v at %v, %v", f, st, err)
	}
}

// TestEnvelopeMatchesParentWithoutSites replays the fixture capture against
// this build and compares each body with the parent's as decoded JSON: for a
// set without site metadata the keys and values are the parent's (key order
// aside), and the ETag format is unchanged.
func TestEnvelopeMatchesParentWithoutSites(t *testing.T) {
	same := func(name string, got []byte) {
		t.Helper()
		var g, w map[string]any
		if err := json.Unmarshal(got, &g); err != nil {
			t.Fatalf("%s: %v in %s", name, err, got)
		}
		if err := json.Unmarshal(fixture(t, name), &w); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s:\n got %s\nwant %s", name, got, fixture(t, name))
		}
	}

	m := NewMemory("TSVD", nil)
	m.log.epoch = fixtureEpoch
	m.Publish(fixtureFirst)
	inner := NewHandler(m, HandlerOptions{})
	var posted []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posted, _ = io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(posted))
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	s := NewHTTPStore(srv.URL, HTTPConfig{})
	defer s.Close()
	if err := s.Publish(fixtureSecond); err != nil {
		t.Fatal(err)
	}
	same("post_body.json", posted)

	for name, url := range map[string]string{
		"get_full.json":  srv.URL + TrapsPath,
		"get_delta.json": srv.URL + TrapsPath + "?" + SinceParam + "=e1f2e3d4c5b6a7988-g1",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		same(name, body)
		if tag := resp.Header.Get("ETag"); tag != string(fixture(t, name+".etag")) {
			t.Errorf("%s: ETag %s, parent sent %s", name, tag, fixture(t, name+".etag"))
		}
	}

	path := filepath.Join(t.TempDir(), "snapshot.json")
	if err := NewSnapshotPersister(path).Save(m.SnapshotState()); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	same("snapshot.json", saved)
}

// TestSiteTablesSurviveFleetMode publishes a File carrying a site table
// through HTTPStore → NewHandler → SnapshotPersister.Save → Load and a second
// client's Fetch: the table must arrive on every hop, and the fetched
// snapshot must triage to the ids the same file gets when merged in-process.
// (Before the envelope, the wire and snapshot shapes had no "sites" key: 0
// rows on all three hops, and every pair was identified by bare location
// keys.)
func TestSiteTablesSurviveFleetMode(t *testing.T) {
	published := trapfile.File{Tool: "TSVD",
		Pairs: pairs("cache.go:41", "cache.go:57", "pool.go:12", "pool.go:30"),
		Sites: []sites.Tuple{
			{Loc: "cache.go:41", Class: "Dictionary", Method: "Set", Write: true},
			{Loc: "cache.go:57", Class: "Dictionary", Method: "Get"},
			{Loc: "pool.go:12", Class: "List", Method: "Add", Write: true},
		}}
	want := trapfile.Merge(trapfile.File{}, published)

	m := NewMemory("TSVD", nil)
	persister := NewSnapshotPersister(filepath.Join(t.TempDir(), "snapshot.json"))
	srv := httptest.NewServer(NewHandler(m, HandlerOptions{OnMerge: func(f trapfile.File, st SyncState) {
		if err := persister.Save(f, st); err != nil {
			t.Error(err)
		}
	}}))
	defer srv.Close()

	first, _ := newTestClient(srv.URL, HTTPConfig{})
	defer first.Close()
	if err := first.Publish(published); err != nil {
		t.Fatal(err)
	}
	if f, _ := m.SnapshotState(); !reflect.DeepEqual(f.Sites, want.Sites) {
		t.Errorf("daemon holds sites %+v, want %+v", f.Sites, want.Sites)
	}
	if f, _, err := persister.Load(); err != nil || !reflect.DeepEqual(f, want) {
		t.Errorf("snapshot file holds %+v (%v), want %+v", f, err, want)
	}
	second, _ := newTestClient(srv.URL, HTTPConfig{})
	defer second.Close()
	if f, err := second.Fetch(); err != nil || !reflect.DeepEqual(f, want) {
		t.Errorf("second client fetched %+v (%v), want %+v", f, err, want)
	}

	// A later publish that only adds a site row is growth too: the polling
	// client gets it as a delta, not a 304 that hides it.
	late := sites.Tuple{Loc: "pool.go:30", Class: "List", Method: "Count"}
	if err := first.Publish(trapfile.File{Tool: "TSVD", Sites: []sites.Tuple{late}}); err != nil {
		t.Fatal(err)
	}
	want = trapfile.Merge(want, trapfile.File{Sites: []sites.Tuple{late}})
	if f, err := second.Fetch(); err != nil || !reflect.DeepEqual(f, want) || second.WireStats().DeltaFetches != 1 {
		t.Errorf("after a sites-only publish the second client holds %+v (%v, %+v), want %+v", f, err, second.WireStats(), want)
	}

	// What the table buys downstream: the snapshot the second client now
	// holds names each bug by the id the same file gets when merged
	// in-process, not by the one its bare location keys would give.
	fetched, err := second.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	var got, wantIDs []string
	for _, c := range triage.FromTrapFile(fetched) {
		got = append(got, c.ID)
	}
	for _, c := range triage.FromTrapFile(want) {
		wantIDs = append(wantIDs, c.ID)
	}
	bare := triage.FromTrapFile(trapfile.File{Pairs: want.Pairs})
	if !reflect.DeepEqual(got, wantIDs) || got[0] == bare[0].ID {
		t.Errorf("fetched snapshot triages to ids %v, in-process merge gives %v (pairs alone give %v…)", got, wantIDs, bare[0].ID)
	}
}

// TestHealthzReadsOneState polls /healthz while a publisher adds exactly one
// new pair per merge: generation and pairs come from one lock acquisition, so
// their difference never moves.
func TestHealthzReadsOneState(t *testing.T) {
	m := NewMemory("TSVD", nil)
	srv := httptest.NewServer(NewHandler(m, HandlerOptions{}))
	defer srv.Close()

	const merges = 2000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < merges; i++ {
			m.Publish(trapfile.File{Pairs: pairs("grow.go:1", fmt.Sprintf("grow.go:%d", i+2))})
		}
	}()
	for m.PairCount() < merges {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h wireHealth
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if uint64(h.Pairs) != h.Generation {
			t.Fatalf("healthz straddled a merge: generation %d, pairs %d", h.Generation, h.Pairs)
		}
	}
	wg.Wait()
	if st := m.Status(); st.Pairs != merges || st.Generation != merges {
		t.Fatalf("publisher did not add one pair per merge: %+v", st)
	}
}

func FuzzParseSyncState(f *testing.F) {
	for _, s := range []string{"", "e0-g0", "e1f2e3d4c5b6a7988-g2", "eFF-g1", "e-g", "g3", "e1-g-1", "e1-g18446744073709551616", "e1-g2-g3"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		st, err := parseSyncState(s)
		if err != nil {
			if st != (SyncState{}) {
				t.Fatalf("parseSyncState(%q) failed with %v but returned %v", s, err, st)
			}
			return
		}
		if back, err := parseSyncState(st.String()); err != nil || back != st {
			t.Fatalf("parseSyncState(%q) = %v, whose String %q parses to %v, %v", s, st, st.String(), back, err)
		}
	})
}

// scannerDefers holds one body per input scanEnvelope leaves to encoding/json
// — some valid JSON, some not.
var scannerDefers = []string{
	`{"version":1,"tool":"TSVD","pairs":[{"a":"pkg\/a.go:1","b":"pkg\/b.go:2"}]}`, // escape
	`{"version":1,"tool":"TSVD","pairs":[{"a":"ä.go:1","b":"b.go:2"}]}`,           // non-ASCII
	`{"version":1,"pairs":null}`,                        // null
	`{"version":1,"pairs":[{"a":"a","b":"b","a":"c"}]}`, // duplicate key
	`{"version":1,"Pairs":[{"a":"a","b":"b"}]}`,         // case-variant key
	`{"version":1,"pairs":[],"peer":"x"}`,               // unknown key
	`{"version":01,"pairs":[]}`,                         // leading zero
	`{"version":1,"generation":1e2,"pairs":[]}`,         // exponent
	`{"version":1,"since":-1,"pairs":[]}`,               // sign
	`{"version":1,"generation":18446744073709551616}`,   // out of range
	`{"version":1,"pairs":[]} trailing`,                 // trailing bytes
}

// TestScannerDefersOutsideItsSubset: the scanner reads every body this
// package writes — compact or indented — and leaves each input outside its
// subset to encoding/json, whose verdict decodeEnvelope then returns.
func TestScannerDefersOutsideItsSubset(t *testing.T) {
	for _, name := range []string{"get_full.json", "get_delta.json", "post_body.json", "snapshot.json"} {
		if _, ok := scanEnvelope(string(fixture(t, name))); !ok {
			t.Errorf("the scanner left %s to encoding/json", name)
		}
	}
	for _, data := range scannerDefers {
		if env, ok := scanEnvelope(data); ok {
			t.Errorf("the scanner read %s as %+v", data, env)
		}
		var want envelope
		jsonErr := json.Unmarshal([]byte(data), &want)
		if env, _, err := decodeEnvelope([]byte(data)); (err != nil) != (jsonErr != nil) ||
			err == nil && !reflect.DeepEqual(env.File, trapfile.Normalize(want.File)) {
			t.Errorf("%s decoded to %+v, %v; encoding/json gives %+v, %v", data, env, err, want, jsonErr)
		}
	}
}

// TestDecodeEnvelopeAllocs: a canonical 1,000-pair body decodes in a few
// dozen allocations — the body's copy, the growing row slice and
// normalize's one copy — not two strings a pair.
func TestDecodeEnvelopeAllocs(t *testing.T) {
	f := trapfile.File{Tool: "TSVD"}
	for i := 0; i < 1000; i++ {
		f.Pairs = append(f.Pairs, trapfile.Pair{A: fmt.Sprintf("pkg/a.go:%04d", i), B: fmt.Sprintf("pkg/b.go:%04d", i)})
	}
	body, err := json.Marshal(envelopeOf(f, SyncState{Epoch: fixtureEpoch, Generation: 7}))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := decodeEnvelope(body); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations to decode %d pairs (%d bytes)", allocs, len(f.Pairs), len(body))
	if allocs > 40 {
		t.Errorf("decoding %d canonical pairs took %.0f allocations, want at most 40", len(f.Pairs), allocs)
	}
}

// TestMergeDoesNotRetainPayload merges a decoded body of pairs the daemon
// holds plus one it does not, and checks by address that no string the set
// or its arrival log keeps points into the body. The scanner's strings are
// substrings of one copy of the body, so a set that kept the one new pair as
// decoded would keep every byte of the body alive with it.
func TestMergeDoesNotRetainPayload(t *testing.T) {
	var known []trapfile.Pair
	for i := 0; i < 64; i++ {
		known = append(known, trapfile.Pair{A: fmt.Sprintf("known/a.go:%03d", 2*i), B: fmt.Sprintf("known/b.go:%03d", 2*i)})
	}
	fresh := trapfile.Pair{A: "known/a.go:063", B: "known/b.go:063"}
	m := NewMemory("TSVD", nil)
	m.Publish(trapfile.File{Tool: "TSVD", Pairs: known})
	in := trapfile.Merge(trapfile.File{Tool: "TSVD", Pairs: known}, trapfile.File{Pairs: []trapfile.Pair{fresh}})
	body, err := json.Marshal(envelopeOf(in, SyncState{}))
	if err != nil {
		t.Fatal(err)
	}
	env, _, err := decodeEnvelope(body)
	if err != nil {
		t.Fatal(err)
	}
	if added, _ := m.merge(env.File); !reflect.DeepEqual(added.Pairs, []trapfile.Pair{fresh}) {
		t.Fatalf("the merge added %v, want only %v", added.Pairs, fresh)
	}

	// The body's first and last strings locate its copy. Strings that are
	// allocations of their own, as encoding/json makes them, have no common
	// copy, and nothing the set keeps can pin one.
	addr := func(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }
	last := env.Pairs[len(env.Pairs)-1].B
	start := addr(env.Tool) - uintptr(bytes.Index(body, []byte(`"TSVD"`))+1)
	oneCopy := addr(last)-start == uintptr(bytes.LastIndex(body, []byte(last)))
	t.Logf("decoded strings are substrings of one copy of the body: %v", oneCopy)
	pinned := func(s string) bool {
		return oneCopy && s != "" && addr(s) >= start && addr(s) < start+uintptr(len(body))
	}
	strs := []string{m.log.set.Tool}
	for _, p := range slices.Concat(m.log.set.Pairs, m.log.pairs) {
		strs = append(strs, p.A, p.B)
	}
	for _, s := range slices.Concat(m.log.set.Sites, m.log.sites) {
		strs = append(strs, s.Loc, s.Class, s.Method)
	}
	for _, s := range strs {
		if pinned(s) {
			t.Errorf("the daemon's set keeps %q, a substring of the decoded body", s)
		}
	}
}

func FuzzDecodeEnvelope(f *testing.F) {
	for _, name := range []string{"get_full.json", "get_delta.json", "post_body.json", "snapshot.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", "parent", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":1,"pairs":[{"a":"z","b":"a"},{"a":"","b":"x"},{"a":"a","b":"z"}],"sites":[{"loc":""},{"loc":"z","write":true},{"loc":"z","write":true}],"epoch":"ff"}`))
	f.Add([]byte(`{"version":1,"tool":"TSVD","pairs":[{"a":"a.go:1","b":"b.go:2"}],"sites":[{"loc":"b.go:2","class":"List","method":"Add","write":true},{"loc":"a.go:1","class":"Dictionary","method":"ContainsKey","write":true},{"loc":"a.go:1","class":"Dictionary","method":"ContainsKey"}],"generation":3,"epoch":"1f","delta":true,"since":2}`))
	f.Add([]byte(`{"version":2,"pairs":[]}`))
	f.Add([]byte(`{"version":1,"epoch":"not hex"}`))
	f.Add([]byte(`[]`))
	for _, data := range scannerDefers {
		f.Add([]byte(data))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if scanned, ok := scanEnvelope(string(data)); ok {
			var want envelope
			if err := json.Unmarshal(data, &want); err != nil || !reflect.DeepEqual(scanned, want) {
				t.Fatalf("the scanner read %q as\n%#v\nencoding/json gives\n%#v, %v", data, scanned, want, err)
			}
		}
		env, st, err := decodeEnvelope(data)
		if err != nil {
			if !errors.Is(err, trapfile.ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		var probe struct {
			Version int `json:"version"`
		}
		if json.Unmarshal(data, &probe) != nil || probe.Version != trapfile.FormatVersion {
			t.Fatalf("accepted a body of version %d", probe.Version)
		}
		if norm := trapfile.Normalize(env.File); !reflect.DeepEqual(norm, env.File) {
			t.Fatalf("decoded file is not normalized:\n got %+v\nwant %+v", env.File, norm)
		}
		if st.Generation != env.Generation {
			t.Fatalf("state %v disagrees with body generation %d", st, env.Generation)
		}
	})
}
