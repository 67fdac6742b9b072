package trapfile

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/ids"
	"repro/internal/report"
	"repro/internal/sites"
)

func TestRoundTrip(t *testing.T) {
	a := ids.InternKey("pkg/foo.go:10")
	b := ids.InternKey("pkg/foo.go:20")
	c := ids.InternKey("pkg/bar.go:5")
	pairs := []report.PairKey{report.KeyOf(a, b), report.KeyOf(c, c)}

	path := filepath.Join(t.TempDir(), "traps.json")
	if err := Save(path, New("TSVD", pairs)); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d pairs, want 2", len(got))
	}
	want := map[report.PairKey]bool{report.KeyOf(a, b): true, report.KeyOf(c, c): true}
	for _, p := range got {
		if !want[p] {
			t.Fatalf("unexpected pair %+v", p)
		}
	}
}

func TestLoadMissingFileIsEmpty(t *testing.T) {
	got, err := Load(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || got != nil {
		t.Fatalf("Load(absent) = %v, %v; want nil, nil", got, err)
	}
}

func TestLoadRejectsBadVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traps.json")
	os.WriteFile(path, []byte(`{"version": 99, "pairs": []}`), 0o644)
	if _, err := Load(path); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traps.json")
	os.WriteFile(path, []byte("not json"), 0o644)
	if _, err := Load(path); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestFromKeysDropsUninterned(t *testing.T) {
	fabricated := report.KeyOf(ids.OpID(123), ids.OpID(456)) // never interned
	if got := FromKeys([]report.PairKey{fabricated}); len(got) != 0 {
		t.Fatalf("uninterned pair survived: %v", got)
	}
}

// errCrash simulates a process killed between writing the temp file and the
// rename: Save stops with no cleanup, exactly like kill -9 would leave things.
type errCrash struct{ tmp string }

func (e *errCrash) Error() string { return "simulated crash before rename" }

func TestSaveCrashBeforeRenameKeepsPreviousFile(t *testing.T) {
	a := ids.InternKey("pkg/crash.go:1")
	b := ids.InternKey("pkg/crash.go:2")
	c := ids.InternKey("pkg/crash.go:3")
	dir := t.TempDir()
	path := filepath.Join(dir, "traps.json")

	if err := Save(path, New("TSVD", []report.PairKey{report.KeyOf(a, b)})); err != nil {
		t.Fatal(err)
	}

	// Second Save "dies" after the temp write, before the rename.
	crash := &errCrash{}
	testHookAfterWrite = func(tmpPath string) error {
		crash.tmp = tmpPath
		return crash
	}
	defer func() { testHookAfterWrite = nil }()
	err := Save(path, New("TSVD", []report.PairKey{report.KeyOf(a, c)}))
	if err != crash {
		t.Fatalf("Save = %v, want the simulated crash", err)
	}

	// The previous file must be byte-for-byte observable and loadable.
	got, lerr := Load(path)
	if lerr != nil {
		t.Fatalf("previous trap file unreadable after crash: %v", lerr)
	}
	if len(got) != 1 || got[0] != report.KeyOf(a, b) {
		t.Fatalf("previous contents lost: %v", got)
	}

	// The abandoned temp file is present (the killed process cleaned up
	// nothing) but harmless: it is not the trap file.
	if _, serr := os.Stat(crash.tmp); serr != nil {
		t.Fatalf("simulated crash should leave the temp file: %v", serr)
	}

	// A later, healthy Save completes the replacement.
	testHookAfterWrite = nil
	if err := Save(path, New("TSVD", []report.PairKey{report.KeyOf(a, c)})); err != nil {
		t.Fatal(err)
	}
	got, lerr = Load(path)
	if lerr != nil || len(got) != 1 || got[0] != report.KeyOf(a, c) {
		t.Fatalf("recovery Save not observed: %v, %v", got, lerr)
	}
}

func TestSaveNeverExposesPartialFile(t *testing.T) {
	// At the hook point the full new contents exist only under the temp
	// name; the destination still holds the old bytes. This is the
	// "partially-written file is never observed" contract: there is no
	// instant at which path holds a prefix of the new contents.
	a := ids.InternKey("pkg/partial.go:1")
	b := ids.InternKey("pkg/partial.go:2")
	dir := t.TempDir()
	path := filepath.Join(dir, "traps.json")
	if err := Save(path, New("TSVD", nil)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var atHook []byte
	testHookAfterWrite = func(tmpPath string) error {
		atHook, err = os.ReadFile(path)
		if err != nil {
			t.Errorf("destination unreadable mid-save: %v", err)
		}
		tmp, terr := os.ReadFile(tmpPath)
		if terr != nil {
			t.Errorf("temp file unreadable mid-save: %v", terr)
		}
		if len(tmp) == 0 {
			t.Error("temp file empty at hook point; new contents not yet durable")
		}
		return nil
	}
	defer func() { testHookAfterWrite = nil }()
	if err := Save(path, New("TSVD", []report.PairKey{report.KeyOf(a, b)})); err != nil {
		t.Fatal(err)
	}
	if string(atHook) != string(before) {
		t.Fatalf("destination mutated before rename:\nbefore: %s\nat hook: %s", before, atHook)
	}

	// No stray temp files after a successful Save.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "traps.json" {
		t.Fatalf("unexpected directory contents after Save: %v", entries)
	}
}

func TestLoadNormalizesMalformedFiles(t *testing.T) {
	ka, kb := "pkg/n.go:1", "pkg/n.go:2"
	a, b := ids.InternKey(ka), ids.InternKey(kb)
	cases := []struct {
		name string
		json string
		want []report.PairKey
	}{
		{
			name: "empty keys dropped",
			json: `{"version":1,"pairs":[{"a":"","b":"` + kb + `"},{"a":"` + ka + `","b":""},{"a":"","b":""}]}`,
			want: nil,
		},
		{
			name: "reversed duplicate collapses",
			json: `{"version":1,"pairs":[{"a":"` + ka + `","b":"` + kb + `"},{"a":"` + kb + `","b":"` + ka + `"}]}`,
			want: []report.PairKey{report.KeyOf(a, b)},
		},
		{
			name: "exact duplicate collapses",
			json: `{"version":1,"pairs":[{"a":"` + ka + `","b":"` + kb + `"},{"a":"` + ka + `","b":"` + kb + `"}]}`,
			want: []report.PairKey{report.KeyOf(a, b)},
		},
		{
			name: "self pair survives once",
			json: `{"version":1,"pairs":[{"a":"` + ka + `","b":"` + ka + `"},{"a":"` + ka + `","b":"` + ka + `"}]}`,
			want: []report.PairKey{report.KeyOf(a, a)},
		},
		{
			name: "mixed garbage and good",
			json: `{"version":1,"pairs":[{"a":"","b":""},{"a":"` + kb + `","b":"` + ka + `"}]}`,
			want: []report.PairKey{report.KeyOf(a, b)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "traps.json")
			if err := os.WriteFile(path, []byte(tc.json), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("Load = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("Load[%d] = %v, want %v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

func TestSaveNormalizesPairs(t *testing.T) {
	a := ids.InternKey("pkg/sn.go:1")
	b := ids.InternKey("pkg/sn.go:2")
	path := filepath.Join(t.TempDir(), "traps.json")
	// Duplicates in the export must not survive the round trip.
	pairs := []report.PairKey{report.KeyOf(a, b), report.KeyOf(b, a), report.KeyOf(a, b)}
	if err := Save(path, New("TSVD", pairs)); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != report.KeyOf(a, b) {
		t.Fatalf("normalized round trip = %v, want one (a,b) pair", got)
	}
}

func TestLoadCorruptIsErrCorrupt(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.json")
	os.WriteFile(garbage, []byte("not json"), 0o644)
	if _, err := Load(garbage); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load(garbage) = %v, want ErrCorrupt", err)
	}
	foreign := filepath.Join(dir, "foreign.json")
	os.WriteFile(foreign, []byte(`{"version": 99, "pairs": []}`), 0o644)
	if _, err := Load(foreign); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load(foreign version) = %v, want ErrCorrupt", err)
	}
	// A genuinely unreadable file is I/O trouble, not corruption.
	if _, err := Load(dir); err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load(directory) = %v, want a non-ErrCorrupt error", err)
	}
}

func TestMergeDeterministicUnion(t *testing.T) {
	ab := Pair{A: "pkg/m.go:1", B: "pkg/m.go:2"}
	cd := Pair{A: "pkg/m.go:3", B: "pkg/m.go:4"}
	ef := Pair{A: "pkg/m.go:5", B: "pkg/m.go:6"}
	x := File{Tool: "TSVD", Pairs: []Pair{cd, ab}}
	y := File{Tool: "TSVDHB", Pairs: []Pair{ef, {A: ab.B, B: ab.A}}}

	got := Merge(x, y)
	want := []Pair{ab, cd, ef}
	if len(got.Pairs) != len(want) {
		t.Fatalf("Merge union = %v, want %v", got.Pairs, want)
	}
	for i := range want {
		if got.Pairs[i] != want[i] {
			t.Fatalf("Merge[%d] = %v, want %v (sorted union)", i, got.Pairs[i], want[i])
		}
	}
	if got.Tool != "TSVDHB" {
		t.Fatalf("Merge tool = %q, want the newer side's", got.Tool)
	}
	if got.Version != FormatVersion {
		t.Fatalf("Merge version = %d", got.Version)
	}

	// Order-independence up to the Tool label: the pair lists must match.
	rev := Merge(y, x)
	if len(rev.Pairs) != len(got.Pairs) {
		t.Fatalf("Merge not commutative: %v vs %v", rev.Pairs, got.Pairs)
	}
	for i := range got.Pairs {
		if rev.Pairs[i] != got.Pairs[i] {
			t.Fatalf("Merge not commutative at %d: %v vs %v", i, rev.Pairs[i], got.Pairs[i])
		}
	}
	if rev.Tool != "TSVD" {
		t.Fatalf("Merge(y, x) tool = %q, want newer side %q", rev.Tool, "TSVD")
	}

	// Newer side with no tool label inherits the older one's.
	if m := Merge(x, File{Pairs: []Pair{ef}}); m.Tool != "TSVD" {
		t.Fatalf("Merge with unlabeled newer side lost tool: %q", m.Tool)
	}
}

func TestMergeAssociative(t *testing.T) {
	files := []File{
		{Pairs: []Pair{{A: "a", B: "b"}, {A: "c", B: "d"}}},
		{Pairs: []Pair{{A: "b", B: "a"}, {A: "e", B: "f"}}},
		{Pairs: []Pair{{A: "c", B: "d"}, {A: "a", B: "a"}}},
	}
	left := Merge(Merge(files[0], files[1]), files[2])
	right := Merge(files[0], Merge(files[1], files[2]))
	if len(left.Pairs) != len(right.Pairs) {
		t.Fatalf("Merge not associative: %v vs %v", left.Pairs, right.Pairs)
	}
	for i := range left.Pairs {
		if left.Pairs[i] != right.Pairs[i] {
			t.Fatalf("Merge not associative at %d: %v vs %v", i, left.Pairs[i], right.Pairs[i])
		}
	}
}

func TestSaveStampsVersionAndNormalizes(t *testing.T) {
	ka, kb := "pkg/v.go:1", "pkg/v.go:2"
	path := filepath.Join(t.TempDir(), "traps.json")
	// A caller-assembled literal with a stale version and unsorted,
	// duplicated pairs must come back canonical.
	f := File{Version: 99, Tool: "TSVD", Pairs: []Pair{
		{A: kb, B: ka}, {A: ka, B: kb},
	}}
	if err := Save(path, f); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != FormatVersion {
		t.Fatalf("saved version = %d, want %d", got.Version, FormatVersion)
	}
	if len(got.Pairs) != 1 || got.Pairs[0] != (Pair{A: ka, B: kb}) {
		t.Fatalf("saved pairs = %v, want one sorted (a,b)", got.Pairs)
	}
}

func TestLoadFileMissingIsEmpty(t *testing.T) {
	f, err := LoadFile(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil {
		t.Fatal(err)
	}
	if f.Version != FormatVersion || len(f.Pairs) != 0 {
		t.Fatalf("LoadFile(absent) = %+v, want empty current-version file", f)
	}
}

// TestGrowMatchesResort checks the incremental union against the rule it
// replaces on the daemon's merge path — normalize the concatenation — over
// random overlapping inputs, and that what Grow reports as added is exactly
// the rows the set did not hold.
func TestGrowMatchesResort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := func(n int) File {
		f := File{Tool: "TSVD"}
		for i := 0; i < n; i++ {
			f.Pairs = append(f.Pairs, Pair{A: fmt.Sprint("k", rng.Intn(40)), B: fmt.Sprint("k", rng.Intn(40))})
			f.Sites = append(f.Sites, sites.Tuple{Loc: fmt.Sprint("k", rng.Intn(40)), Write: rng.Intn(2) == 0})
		}
		return f
	}
	set := Normalize(File{})
	for step := 0; step < 200; step++ {
		in := random(rng.Intn(6))
		want := File{Version: FormatVersion, Tool: "TSVD",
			Pairs: normalize(append(append([]Pair(nil), set.Pairs...), in.Pairs...)),
			Sites: normalizeSites(append(append([]sites.Tuple(nil), set.Sites...), in.Sites...))}
		held := map[any]bool{}
		for _, p := range set.Pairs {
			held[p] = true
		}
		for _, s := range set.Sites {
			held[s] = true
		}
		added := Grow(&set, in)
		if !reflect.DeepEqual(set, want) {
			t.Fatalf("step %d: Grow left\n%+v\nwant\n%+v", step, set, want)
		}
		for _, p := range added.Pairs {
			if held[p] {
				t.Fatalf("step %d: Grow reported %v as added, the set held it", step, p)
			}
			held[p] = true
		}
		for _, s := range added.Sites {
			if held[s] {
				t.Fatalf("step %d: Grow reported %v as added, the set held it", step, s)
			}
			held[s] = true
		}
		if len(held) != len(set.Pairs)+len(set.Sites) {
			t.Fatalf("step %d: set gained %d rows Grow did not report", step, len(set.Pairs)+len(set.Sites)-len(held))
		}
	}
}

// resortPairs and resortSites are the normalizers as they were before the
// canonical fast path: a map for duplicates and a sort, whatever the input.
func resortPairs(pairs []Pair) []Pair {
	out := make([]Pair, 0, len(pairs))
	seen := map[Pair]bool{}
	for _, p := range pairs {
		if p.A == "" || p.B == "" {
			continue
		}
		if p.A > p.B {
			p.A, p.B = p.B, p.A
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

func resortSites(recs []sites.Tuple) []sites.Tuple {
	var out []sites.Tuple
	seen := map[sites.Tuple]bool{}
	for _, r := range recs {
		if r.Loc != "" && !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// TestCanonicalFastPathMatchesResort: normalize and normalizeSites return
// what the map-and-sort path returns — nil-ness included — on random rows
// and on canonical rows with one defect each, and Normalize's slices are
// never the input's.
func TestCanonicalFastPathMatchesResort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	key := func() string {
		if rng.Intn(12) == 0 {
			return ""
		}
		return fmt.Sprint("k", rng.Intn(30))
	}
	random := func(n int) File {
		f := File{Pairs: []Pair{}, Sites: []sites.Tuple{}}
		for i := 0; i < n; i++ {
			f.Pairs = append(f.Pairs, Pair{A: key(), B: key()})
			f.Sites = append(f.Sites, sites.Tuple{Loc: key(), Class: key(), Write: rng.Intn(2) == 0})
		}
		return f
	}
	// Each defect breaks one property the fast path checks.
	defects := []struct {
		name  string
		pairs func([]Pair) []Pair
		sites func([]sites.Tuple) []sites.Tuple
	}{
		{"none", func(p []Pair) []Pair { return p }, func(s []sites.Tuple) []sites.Tuple { return s }},
		{"adjacent swap", func(p []Pair) []Pair {
			i := rng.Intn(len(p) - 1)
			p[i], p[i+1] = p[i+1], p[i]
			return p
		}, func(s []sites.Tuple) []sites.Tuple {
			i := rng.Intn(len(s) - 1)
			s[i], s[i+1] = s[i+1], s[i]
			return s
		}},
		{"duplicate", func(p []Pair) []Pair {
			i := rng.Intn(len(p))
			return slices.Insert(p, i, p[i])
		}, func(s []sites.Tuple) []sites.Tuple {
			i := rng.Intn(len(s))
			return slices.Insert(s, i, s[i])
		}},
		{"empty key", func(p []Pair) []Pair {
			if i := rng.Intn(len(p)); rng.Intn(2) == 0 {
				p[i].A = ""
			} else {
				p[i].B = ""
			}
			return p
		}, func(s []sites.Tuple) []sites.Tuple {
			s[rng.Intn(len(s))].Loc = ""
			return s
		}},
		{"A > B", func(p []Pair) []Pair {
			for i := range p {
				if p[i].A != p[i].B {
					p[i].A, p[i].B = p[i].B, p[i].A
					break
				}
			}
			return p
		}, nil},
		{"empty", func([]Pair) []Pair { return []Pair{} }, func([]sites.Tuple) []sites.Tuple { return []sites.Tuple{} }},
		{"nil", func([]Pair) []Pair { return nil }, func([]sites.Tuple) []sites.Tuple { return nil }},
	}
	check := func(name string, in File) {
		t.Helper()
		orig := File{Pairs: slices.Clone(in.Pairs), Sites: slices.Clone(in.Sites)}
		gotPairs, gotSites := normalize(in.Pairs), normalizeSites(in.Sites)
		if want := resortPairs(orig.Pairs); !reflect.DeepEqual(gotPairs, want) {
			t.Fatalf("%s: normalize(%v) = %#v, want %#v", name, orig.Pairs, gotPairs, want)
		}
		if want := resortSites(orig.Sites); !reflect.DeepEqual(gotSites, want) {
			t.Fatalf("%s: normalizeSites(%v) = %#v, want %#v", name, orig.Sites, gotSites, want)
		}
		out := Normalize(in)
		for i := range out.Pairs {
			out.Pairs[i].A += "x"
		}
		for i := range out.Sites {
			out.Sites[i].Loc += "x"
		}
		if !reflect.DeepEqual(in.Pairs, orig.Pairs) || !reflect.DeepEqual(in.Sites, orig.Sites) {
			t.Fatalf("%s: Normalize returned rows that share the input's backing array", name)
		}
	}
	for step := 0; step < 300; step++ {
		check("random", random(rng.Intn(8)))
		canon := Normalize(random(2 + rng.Intn(20)))
		for len(canon.Pairs) < 2 || len(canon.Sites) < 2 {
			canon = Normalize(random(2 + rng.Intn(20)))
		}
		for _, d := range defects {
			in := File{Pairs: d.pairs(slices.Clone(canon.Pairs)), Sites: slices.Clone(canon.Sites)}
			if d.sites != nil {
				in.Sites = d.sites(in.Sites)
			}
			check(d.name, in)
		}
	}
}

// FuzzTrapfileLoad feeds LoadFile arbitrary bytes: it never panics, what it
// accepts is normalized and of the current version, and what it rejects is
// ErrCorrupt.
func FuzzTrapfileLoad(f *testing.F) {
	f.Add([]byte(`{"version":1,"tool":"TSVD","pairs":[{"a":"z","b":"a"},{"a":"a","b":"z"},{"a":"","b":"x"}],"sites":[{"loc":"z","write":true},{"loc":""}]}`))
	f.Add([]byte(`{"version":2,"pairs":[]}`))
	f.Add([]byte(`{"version":1,"pairs":null,"epoch":"ff","generation":3}`))
	f.Add([]byte(`{"version":1,"pairs":[{"a":1}]}`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	path := filepath.Join(f.TempDir(), "traps.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadFile(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("LoadFile rejected %q with a non-corrupt error: %v", data, err)
			}
			return
		}
		if got.Version != FormatVersion || !reflect.DeepEqual(got, Normalize(got)) {
			t.Fatalf("LoadFile accepted %q as the denormalized %+v", data, got)
		}
	})
}
