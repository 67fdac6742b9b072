package trapstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/sites"
	"repro/internal/trapfile"
)

// reboot reads the files at path the way a restarted daemon does: through a
// fresh persister, never through the one that wrote them.
func reboot(t *testing.T, path string) (trapfile.File, SyncState) {
	t.Helper()
	f, st, err := NewSnapshotPersister(path).Load()
	if err != nil {
		t.Fatalf("load %s: %v", path, err)
	}
	return f, st
}

func logBytes(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path + ".log")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// growing returns n canonical sets, each the one before plus a few rows, the
// last few of them with site rows too. The first starts from pad pairs: a
// snapshot of 40 stays larger than a dozen records appended to it.
func growing(rng *rand.Rand, n, pad int) []trapfile.File {
	files := make([]trapfile.File, n)
	cur := trapfile.File{Tool: "TSVD"}
	for i := 0; i < pad; i++ {
		cur.Pairs = append(cur.Pairs, trapfile.Pair{A: fmt.Sprintf("pad%02d.go:1", i), B: fmt.Sprintf("pad%02d.go:2", i)})
	}
	for i := range files {
		in := trapfile.File{}
		for k := 0; k <= rng.Intn(3); k++ {
			in.Pairs = append(in.Pairs, trapfile.Pair{
				A: fmt.Sprintf("p%d.go:%d", rng.Intn(50), rng.Intn(50)), B: fmt.Sprintf("q%d.go:%d", i, k)})
		}
		if i >= n/2 {
			in.Sites = []sites.Tuple{{Loc: fmt.Sprintf("q%d.go:0", i), Class: "Dictionary", Method: "Set", Write: true}}
		}
		cur = trapfile.Merge(cur, in)
		files[i] = cur
	}
	return files
}

// TestSnapshotPersisterCrashRecovery mirrors the trapfile kill-9 test for
// the daemon's compaction path: a snapshot rewrite killed between the
// temp-file write and the rename must leave the previous snapshot and the
// log beside it readable and intact.
func TestSnapshotPersisterCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot.json")
	p := NewSnapshotPersister(path)

	first := trapfile.File{Tool: "TSVD", Pairs: []trapfile.Pair{{A: "a.go:1", B: "b.go:2"}}}
	if err := p.Save(first, SyncState{Epoch: 7, Generation: 1}); err != nil {
		t.Fatalf("save gen 1: %v", err)
	}
	second := trapfile.Merge(first, trapfile.File{Pairs: []trapfile.Pair{{A: "c.go:3", B: "d.go:4"}}})
	if err := p.Save(second, SyncState{Epoch: 7, Generation: 2}); err != nil {
		t.Fatalf("save gen 2: %v", err)
	}

	// Kill the process (simulated) at the most dangerous instant of the next
	// compaction — a save that lost a row cannot be an append: after the new
	// temp file is durable, before the rename.
	trapfile.SetTestHookAfterWrite(func(string) error { return errors.New("killed") })
	defer trapfile.SetTestHookAfterWrite(nil)
	third := trapfile.File{Tool: "TSVD", Pairs: []trapfile.Pair{{A: "e.go:5", B: "f.go:6"}}}
	if err := p.Save(third, SyncState{Epoch: 7, Generation: 3}); err == nil {
		t.Fatal("save under the kill hook unexpectedly succeeded")
	}
	trapfile.SetTestHookAfterWrite(nil)

	// Recovery: what a reboot reads is the previous generation, whole.
	got, st := reboot(t, path)
	if !reflect.DeepEqual(got.Pairs, second.Pairs) || st != (SyncState{Epoch: 7, Generation: 2}) {
		t.Fatalf("after the crash a reboot reads %v at %v, want %v at generation 2", got.Pairs, st, second.Pairs)
	}
	// The killed save's temp debris is visible (a killed process cleans up
	// nothing) and does not confuse recovery.
	debris, err := filepath.Glob(filepath.Join(dir, "snapshot.json.tmp-*"))
	if err != nil || len(debris) == 0 {
		t.Fatalf("expected temp-file debris from the killed save, found %v (err %v)", debris, err)
	}

	// The retried save (same generation — the daemon's state did not move)
	// goes through: the failed attempt must not poison the monotonic guard.
	if err := p.Save(third, SyncState{Epoch: 7, Generation: 3}); err != nil {
		t.Fatalf("retried save gen 3: %v", err)
	}
	if got, st := reboot(t, path); !reflect.DeepEqual(got.Pairs, third.Pairs) || st.Generation != 3 {
		t.Fatalf("after the retried save a reboot reads %v at %v, want %v", got.Pairs, st, third.Pairs)
	}
}

// TestSnapshotPersisterMonotone asserts a stale save (older generation,
// smaller set) cannot regress the files below a newer persisted state,
// whether that state went to the snapshot or to the log.
func TestSnapshotPersisterMonotone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.json")
	p := NewSnapshotPersister(path)

	files := growing(rand.New(rand.NewSource(1)), 3, 40)
	save := func(i int, gen uint64) {
		t.Helper()
		if err := p.Save(files[i], SyncState{Epoch: 7, Generation: gen}); err != nil {
			t.Fatalf("save gen %d: %v", gen, err)
		}
	}
	save(1, 5)
	save(0, 4) // stale against the snapshot
	if got, st := reboot(t, path); !reflect.DeepEqual(got, files[1]) || st.Generation != 5 {
		t.Fatalf("a stale save regressed the snapshot to %d pairs at %v", len(got.Pairs), st)
	}
	save(2, 7)
	save(1, 6) // stale against the log
	save(2, 7)
	if got, st := reboot(t, path); !reflect.DeepEqual(got, files[2]) || st.Generation != 7 {
		t.Fatalf("a stale save regressed the log to %d pairs at %v", len(got.Pairs), st)
	}
}

// TestSnapshotPersisterConcurrent hammers Save from many goroutines with
// growing sets and ascending generations; what survives must be the full
// union regardless of scheduling.
func TestSnapshotPersisterConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.json")
	p := NewSnapshotPersister(path)

	files := growing(rand.New(rand.NewSource(2)), 16, 40)
	var wg sync.WaitGroup
	for i := range files {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := p.Save(files[i], SyncState{Epoch: 7, Generation: uint64(i + 1)}); err != nil {
				t.Errorf("save gen %d: %v", i+1, err)
			}
		}(i)
	}
	wg.Wait()
	last := files[len(files)-1]
	if got, st := reboot(t, path); !reflect.DeepEqual(got, last) || st.Generation != uint64(len(files)) {
		t.Fatalf("a reboot reads %d pairs at %v after concurrent saves, want %d", len(got.Pairs), st, len(last.Pairs))
	}
	if got, _, err := p.Load(); err != nil || !reflect.DeepEqual(got, last) {
		t.Fatalf("the live persister loads %d pairs (%v), want %d", len(got.Pairs), err, len(last.Pairs))
	}
}

// TestLoadEveryLogPrefix is the torn-tail property: whatever byte a kill-9
// stops an append at, Load returns the snapshot plus exactly the records that
// lie wholly inside what was written, with the last such record's state, and
// never an error.
func TestLoadEveryLogPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.json")
	p := NewSnapshotPersister(path)
	files := growing(rand.New(rand.NewSource(3)), 12, 40)
	ends := []int{0} // ends[i]: the log's size once i records are in it
	for i, f := range files {
		if err := p.Save(f, SyncState{Epoch: 9, Generation: uint64(10 + i)}); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			ends = append(ends, len(logBytes(t, path)))
		}
	}
	log := logBytes(t, path)
	if len(ends) != len(files) || ends[len(ends)-1] != len(log) {
		t.Fatalf("%d saves left %d record ends over %d bytes: a save compacted", len(files), len(ends), len(log))
	}
	snapBefore, _ := os.ReadFile(path)

	torn := filepath.Join(t.TempDir(), "snapshot.json")
	if err := os.WriteFile(torn, snapBefore, 0o644); err != nil {
		t.Fatal(err)
	}
	whole := 0
	for cut := 0; cut <= len(log); cut++ {
		if whole+1 < len(ends) && ends[whole+1] <= cut {
			whole++
		}
		if err := os.WriteFile(torn+".log", log[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, st, err := NewSnapshotPersister(torn).Load()
		if err != nil {
			t.Fatalf("prefix of %d bytes: %v", cut, err)
		}
		if !reflect.DeepEqual(got, files[whole]) || st != (SyncState{Epoch: 9, Generation: uint64(10 + whole)}) {
			t.Fatalf("prefix of %d bytes (%d whole records) loads %d pairs at %v, want %d at generation %d",
				cut, whole, len(got.Pairs), st, len(files[whole].Pairs), 10+whole)
		}
	}

	// Load is read-only, on the live persister as on the torn copy.
	if _, _, err := p.Load(); err != nil {
		t.Fatal(err)
	}
	if snapAfter, _ := os.ReadFile(path); !bytes.Equal(snapAfter, snapBefore) || !bytes.Equal(logBytes(t, path), log) {
		t.Fatal("Load changed the files it read")
	}
	if got := logBytes(t, torn); !bytes.Equal(got, log) {
		t.Fatal("Load changed the log of a persister that never saved")
	}
}

// TestCompactionCases pins when the snapshot is rewritten and the log
// emptied — the first save of a persister value and of an epoch, a save that
// is not the held set grown, a log as large as its snapshot — and that every
// other growing save, canonical or not, is an append.
func TestCompactionCases(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.json")
	p := NewSnapshotPersister(path)
	files := growing(rand.New(rand.NewSource(4)), 6, 40)
	snapshotGen := func() uint64 {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := decodeEnvelope(data)
		if err != nil {
			t.Fatal(err)
		}
		return st.Generation
	}
	step := func(what string, f trapfile.File, st SyncState, wantSnapGen uint64, wantLog bool) {
		t.Helper()
		if err := p.Save(f, st); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := snapshotGen(); got != wantSnapGen || (len(logBytes(t, path)) > 0) != wantLog {
			t.Fatalf("%s: snapshot at generation %d with %d log bytes, want generation %d and log=%v",
				what, got, len(logBytes(t, path)), wantSnapGen, wantLog)
		}
		if got, at := reboot(t, path); !reflect.DeepEqual(got, trapfile.Normalize(f)) || at != st {
			t.Fatalf("%s: a reboot reads %d pairs at %v, want %d at %v", what, len(got.Pairs), at, len(f.Pairs), st)
		}
	}
	step("first save", files[0], SyncState{Epoch: 1, Generation: 1}, 1, false)
	step("growing save", files[1], SyncState{Epoch: 1, Generation: 2}, 1, true)
	shuffled := cloneRows(files[2])
	shuffled.Pairs[0], shuffled.Pairs[1] = shuffled.Pairs[1], shuffled.Pairs[0]
	shuffled.Pairs = append(shuffled.Pairs, shuffled.Pairs[0])
	step("growing save, not canonical", shuffled, SyncState{Epoch: 1, Generation: 3}, 1, true)
	step("save that lost rows", files[0], SyncState{Epoch: 1, Generation: 4}, 4, false)
	step("growing save after it", files[3], SyncState{Epoch: 1, Generation: 5}, 4, true)
	step("new epoch", files[4], SyncState{Epoch: 2, Generation: 6}, 6, false)

	// A fresh persister value on the same files — a restarted daemon that
	// kept its epoch would be one — never appends to what it finds.
	p = NewSnapshotPersister(path)
	step("new persister value", files[5], SyncState{Epoch: 2, Generation: 7}, 7, false)

	// The log may grow to the size of its snapshot and no further.
	small := filepath.Join(t.TempDir(), "snapshot.json")
	p = NewSnapshotPersister(small)
	compactions := 0
	for i, f := range growing(rand.New(rand.NewSource(5)), 40, 0) {
		if err := p.Save(f, SyncState{Epoch: 3, Generation: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
		snap, _ := os.ReadFile(small)
		if log := logBytes(t, small); len(log) == 0 {
			compactions++
		} else if len(log) > 2*len(snap) {
			t.Fatalf("save %d: log of %d bytes beside a snapshot of %d", i, len(log), len(snap))
		}
	}
	if compactions < 3 || compactions > 20 {
		t.Fatalf("40 growing saves from an empty set compacted %d times", compactions)
	}
}

// TestGrownByMatchesReference checks the one-pass diff against the slow way
// of saying the same thing — normalize, compare, subtract — over random small
// files drawn from an alphabet small enough to collide: unsorted, duplicated,
// reversed and empty-keyed rows, supersets and near-supersets.
func TestGrownByMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	key := func() string { return []string{"", "a", "b", "c", "d"}[rng.Intn(5)] }
	draw := func(n int) trapfile.File {
		f := trapfile.File{Tool: "TSVD"}
		for i := 0; i < n; i++ {
			f.Pairs = append(f.Pairs, trapfile.Pair{A: key(), B: key()})
			if rng.Intn(3) == 0 {
				f.Sites = append(f.Sites, sites.Tuple{Loc: key(), Method: key(), Write: rng.Intn(2) == 0})
			}
		}
		return f
	}
	appends := 0
	for i := 0; i < 20000; i++ {
		have := trapfile.Normalize(draw(rng.Intn(5)))
		f := draw(rng.Intn(4))
		if rng.Intn(2) == 0 { // mostly a superset, mostly canonical
			f = trapfile.Merge(have, f)
			if rng.Intn(4) == 0 && len(f.Pairs) > 1 {
				k := rng.Intn(len(f.Pairs) - 1)
				f.Pairs[k], f.Pairs[k+1] = f.Pairs[k+1], f.Pairs[k]
			}
		}
		grown := cloneRows(have)
		want := trapfile.Grow(&grown, f)
		sameRows := func(a, b trapfile.File) bool { return slices.Equal(a.Pairs, b.Pairs) && slices.Equal(a.Sites, b.Sites) }
		wantOK := sameRows(f, trapfile.Normalize(f)) && sameRows(grown, f)
		added, ok := grownBy(have, f)
		if ok != wantOK {
			t.Fatalf("grownBy(%+v, %+v) ok=%v, want %v", have, f, ok, wantOK)
		}
		if ok {
			appends++
			if !sameRows(added, want) {
				t.Fatalf("grownBy(%+v, %+v) added %+v, want %+v", have, f, added, want)
			}
		}
	}
	if appends < 2000 {
		t.Fatalf("only %d of 20000 draws were the held set grown", appends)
	}
}

// TestLoadAfterCrashMidCompaction stages the state a compaction killed
// between its rename and emptying the log leaves — the new snapshot beside
// every record it folded in — under the same epoch and under a new one.
func TestLoadAfterCrashMidCompaction(t *testing.T) {
	for _, newEpoch := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "snapshot.json")
		p := NewSnapshotPersister(path)
		files := growing(rand.New(rand.NewSource(6)), 5, 40)
		for i, f := range files[:4] {
			if err := p.Save(f, SyncState{Epoch: 5, Generation: uint64(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		log := logBytes(t, path)
		if len(log) == 0 {
			t.Fatal("nothing was appended")
		}
		st := SyncState{Epoch: 5, Generation: 5}
		if newEpoch {
			st = SyncState{Epoch: 6, Generation: 5}
		}
		if err := NewSnapshotPersister(path).Save(files[4], st); err != nil { // a compaction …
			t.Fatal(err)
		}
		if err := os.WriteFile(path+".log", log, 0o644); err != nil { // … that never emptied the log
			t.Fatal(err)
		}
		if got, at := reboot(t, path); !reflect.DeepEqual(got, files[4]) || at != st {
			t.Fatalf("newEpoch=%v: a reboot reads %d pairs at %v, want %d at %v", newEpoch, len(got.Pairs), at, len(files[4].Pairs), st)
		}
	}
}

// TestSaveAfterFailedAppend: a write error must not poison the log. The save
// that hit it reports it; the next one compacts instead of appending behind
// whatever reached the file, and a reboot holds both.
func TestSaveAfterFailedAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.json")
	p := NewSnapshotPersister(path)
	files := growing(rand.New(rand.NewSource(7)), 4, 40)
	for i, f := range files[:2] {
		if err := p.Save(f, SyncState{Epoch: 4, Generation: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	p.log.Close() // the injected fault: the next write fails
	if err := p.Save(files[2], SyncState{Epoch: 4, Generation: 3}); err == nil {
		t.Fatal("an append to a closed log reported success")
	}
	// A partial record is the worst the failed write can have left behind.
	if err := os.WriteFile(path+".log", append(logBytes(t, path), 0x40, 0, 0, 0, 1, 2), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, st := reboot(t, path); !reflect.DeepEqual(got, files[1]) || st.Generation != 2 {
		t.Fatalf("after the failed append a reboot reads %d pairs at %v, want generation 2", len(got.Pairs), st)
	}
	if err := p.Save(files[3], SyncState{Epoch: 4, Generation: 4}); err != nil {
		t.Fatalf("save after the failed append: %v", err)
	}
	if len(logBytes(t, path)) != 0 {
		t.Fatal("the save after a failed append appended behind it")
	}
	if got, st := reboot(t, path); !reflect.DeepEqual(got, files[3]) || st.Generation != 4 {
		t.Fatalf("a reboot reads %d pairs at %v, want %d at generation 4", len(got.Pairs), st, len(files[3].Pairs))
	}
}

// TestCloseLeavesWholeSnapshot: after Close the snapshot alone is the whole
// set, to trapfile.LoadFile as to Load, and the persister can be used again.
func TestCloseLeavesWholeSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.json")
	p := NewSnapshotPersister(path)
	if err := p.Close(); err != nil {
		t.Fatalf("close before any save: %v", err)
	}
	files := growing(rand.New(rand.NewSource(8)), 5, 40)
	for i, f := range files[:4] {
		if err := p.Save(f, SyncState{Epoch: 4, Generation: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if lagging, err := trapfile.LoadFile(path); err != nil || len(lagging.Pairs) >= len(files[3].Pairs) {
		t.Fatalf("before Close the snapshot alone holds %d of %d pairs (%v): nothing was appended", len(lagging.Pairs), len(files[3].Pairs), err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	alone, err := trapfile.LoadFile(path)
	if err != nil || !reflect.DeepEqual(alone, files[3]) || len(logBytes(t, path)) != 0 {
		t.Fatalf("after Close the snapshot alone holds %d pairs (%v) beside %d log bytes, want %d and none",
			len(alone.Pairs), err, len(logBytes(t, path)), len(files[3].Pairs))
	}
	if got, st := reboot(t, path); !reflect.DeepEqual(got, alone) || st != (SyncState{Epoch: 4, Generation: 4}) {
		t.Fatalf("a reboot after Close reads %d pairs at %v", len(got.Pairs), st)
	}
	if err := p.Save(files[4], SyncState{Epoch: 4, Generation: 5}); err != nil {
		t.Fatalf("save after Close: %v", err)
	}
	if got, _ := reboot(t, path); !reflect.DeepEqual(got, files[4]) {
		t.Fatalf("a reboot after a save after Close reads %d pairs, want %d", len(got.Pairs), len(files[4].Pairs))
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPlantedIgnoreLogLosesAppendedRows: the planted fault the chaos harness
// must catch does what it says.
func TestPlantedIgnoreLogLosesAppendedRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.json")
	p := NewSnapshotPersister(path)
	files := growing(rand.New(rand.NewSource(9)), 2, 40)
	for i, f := range files {
		if err := p.Save(f, SyncState{Epoch: 4, Generation: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	PlantFault(FaultIgnoreLog)
	defer PlantFault(FaultNone)
	if got, st := reboot(t, path); !reflect.DeepEqual(got, files[0]) || st.Generation != 1 {
		t.Fatalf("with the log ignored a reboot reads %d pairs at %v, want the snapshot's %d", len(got.Pairs), st, len(files[0].Pairs))
	}
}

// logRecord frames body the way append does.
func logRecord(body []byte) []byte {
	rec := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	return append(binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(body)), body...)
}

// FuzzReplayLog replays arbitrary log bytes over a valid snapshot: replay must
// not panic, and what it leaves must be normalized, hold the whole snapshot,
// and hold beyond it only pairs that some CRC-valid record of the log spells
// out.
func FuzzReplayLog(f *testing.F) {
	path := filepath.Join(f.TempDir(), "snapshot.json")
	p := NewSnapshotPersister(path)
	files := growing(rand.New(rand.NewSource(10)), 4, 40)
	for i, file := range files {
		if err := p.Save(file, SyncState{Epoch: 0xabc, Generation: uint64(i + 1)}); err != nil {
			f.Fatal(err)
		}
	}
	log, err := os.ReadFile(path + ".log")
	if err != nil || len(log) == 0 {
		f.Fatalf("no seed log: %v", err)
	}
	snapshot, at := files[0], SyncState{Epoch: 0xabc, Generation: 1}
	f.Add(log)
	f.Add(log[:len(log)-3])
	f.Add(append(bytes.Clone(log), log...))
	f.Add(logRecord([]byte(`{"version":1,"tool":"TSVD","pairs":[{"a":"z","b":"y"}],"generation":2,"epoch":"abc","delta":true,"since":1}`)))
	f.Add(logRecord([]byte(`{"version":1,"pairs":[{"a":"x","b":"y"}],"generation":9,"epoch":"abc","delta":true,"since":3}`)))
	f.Add(logRecord([]byte(`{"version":2,"pairs":[{"a":"x","b":"y"}],"generation":2,"epoch":"abc","delta":true,"since":1}`)))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, '{', '}'})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got := cloneRows(snapshot)
		if st := replay(&got, at, data); st.Epoch != at.Epoch || st.Generation < at.Generation {
			t.Fatalf("replay went from %v to %v", at, st)
		}
		if !reflect.DeepEqual(got, trapfile.Normalize(got)) {
			t.Fatalf("replay left a set that is not normalized: %+v", got)
		}
		spelled := map[trapfile.Pair]bool{}
		for _, p := range snapshot.Pairs {
			spelled[p] = true
		}
		for rest := data; len(rest) >= 8; {
			n, sum := binary.LittleEndian.Uint32(rest), binary.LittleEndian.Uint32(rest[4:])
			if uint64(n) > uint64(len(rest)-8) || crc32.ChecksumIEEE(rest[8:8+n]) != sum {
				break
			}
			if env, _, err := decodeEnvelope(rest[8 : 8+n]); err == nil {
				for _, p := range env.Pairs {
					spelled[p] = true
				}
			}
			rest = rest[8+n:]
		}
		held := map[trapfile.Pair]bool{}
		for _, p := range got.Pairs {
			held[p] = true
			if !spelled[p] {
				t.Fatalf("replay added %v, which neither the snapshot nor any record holds", p)
			}
		}
		for _, p := range snapshot.Pairs {
			if !held[p] {
				t.Fatalf("replay lost the snapshot's %v", p)
			}
		}
	})
}
