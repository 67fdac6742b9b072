package sites

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ids"
)

// table returns the registered sites in id order through the exported
// lookups.
func table(r *Registry) []Site {
	out := make([]Site, r.Len())
	for i := range out {
		out[i] = r.Info(ids.SiteID(i + 1))
	}
	return out
}

// TestRegisterDenseSequential: ids are handed out densely in registration
// order, starting at 1, and every lookup surface agrees on the stored tuple.
func TestRegisterDenseSequential(t *testing.T) {
	r := New()
	const n = 200
	for i := 0; i < n; i++ {
		op := ids.OpID(1000 + i)
		id := r.Register(op, "Dictionary", fmt.Sprintf("Method%d", i), i%2 == 0)
		if id != ids.SiteID(i+1) {
			t.Fatalf("site %d got id %d, want %d", i, id, i+1)
		}
	}
	if r.Len() != n {
		t.Fatalf("Len = %d, want %d", r.Len(), n)
	}
	for i, s := range table(r) {
		if s.ID != ids.SiteID(i+1) {
			t.Fatalf("snapshot[%d].ID = %d, want %d", i, s.ID, i+1)
		}
		if got := r.Info(s.ID); got != s {
			t.Fatalf("Info(%d) = %+v, want %+v", s.ID, got, s)
		}
		if got, ok := r.SiteForOp(s.Op); !ok || got != s {
			t.Fatalf("SiteForOp(%d) = %+v, %v, want %+v", s.Op, got, ok, s)
		}
	}
}

// TestRegisterIdempotent: re-registering any tuple returns its existing id;
// changing any tuple component mints a new one.
func TestRegisterIdempotent(t *testing.T) {
	r := New()
	base := r.Register(7, "List", "Add", true)
	if again := r.Register(7, "List", "Add", true); again != base {
		t.Fatalf("duplicate tuple got id %d, want %d", again, base)
	}
	variants := []ids.SiteID{
		r.Register(8, "List", "Add", true),       // different op
		r.Register(7, "Dictionary", "Add", true), // different class
		r.Register(7, "List", "Remove", true),    // different method
		r.Register(7, "List", "Add", false),      // different kind
	}
	seen := map[ids.SiteID]bool{base: true}
	for i, id := range variants {
		if seen[id] {
			t.Fatalf("variant %d collided with an earlier id %d", i, id)
		}
		seen[id] = true
	}
	if r.Len() != len(seen) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(seen))
	}
}

// TestForCallMatchesRegister: the prologue-named intern is Register.
func TestForCallMatchesRegister(t *testing.T) {
	r := New()
	a := r.ForCall(11, "Queue", "Enqueue", true)
	if b := r.Register(11, "Queue", "Enqueue", true); b != a {
		t.Fatalf("ForCall/Register disagree: %d vs %d", a, b)
	}
}

// TestInfoOutOfRange: Info is total — invalid ids yield the zero Site.
func TestInfoOutOfRange(t *testing.T) {
	r := New()
	r.Register(31, "A", "B", false)
	if s := r.Info(0); s != (Site{}) {
		t.Fatalf("Info(0) = %+v, want zero", s)
	}
	if s := r.Info(999); s != (Site{}) {
		t.Fatalf("Info(999) = %+v, want zero", s)
	}
	if _, ok := r.SiteForOp(999); ok {
		t.Fatal("SiteForOp for unknown op reported ok")
	}
}

// TestConcurrentRegister hammers Register from many goroutines with heavily
// overlapping tuples, forcing table growth races, and checks that interning
// stayed canonical: one id per tuple, every id resolvable, dense table.
func TestConcurrentRegister(t *testing.T) {
	r := New()
	const goroutines = 8
	const perG = 400
	const distinct = 64 // tuple space shared by all goroutines

	idsSeen := make([][]ids.SiteID, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]ids.SiteID, perG)
			for i := 0; i < perG; i++ {
				k := (g*perG + i*13) % distinct
				out[i] = r.Register(
					ids.OpID(5000+k%16),
					fmt.Sprintf("Class%d", k%4),
					fmt.Sprintf("Method%d", k),
					k%2 == 0,
				)
			}
			idsSeen[g] = out
		}(g)
	}
	wg.Wait()

	if r.Len() != distinct {
		t.Fatalf("Len = %d, want %d distinct tuples", r.Len(), distinct)
	}
	// Every goroutine's view of a tuple must agree: re-deriving the tuple
	// from the id and re-registering it must return the same id.
	for g := range idsSeen {
		for _, id := range idsSeen[g] {
			s := r.Info(id)
			if s.ID != id {
				t.Fatalf("Info(%d) holds id %d", id, s.ID)
			}
			if again := r.Register(s.Op, s.Class, s.Method, s.Write); again != id {
				t.Fatalf("tuple %+v interned twice: %d and %d", s, id, again)
			}
		}
	}
	// The dense table has no holes.
	for i, s := range table(r) {
		if s.ID != ids.SiteID(i+1) {
			t.Fatalf("snapshot[%d].ID = %d", i, s.ID)
		}
	}
}

// FuzzRegistryIntern drives Register with fuzz-chosen tuples from several
// goroutines at once and asserts the interning invariants: duplicate tuples
// get one id, ids stay dense, and every lookup path round-trips.
func FuzzRegistryIntern(f *testing.F) {
	f.Add(int64(1), "Dictionary", "Add", true, uint8(3))
	f.Add(int64(1), "Dictionary", "Add", false, uint8(1))
	f.Add(int64(-7), "", "", true, uint8(8))
	f.Add(int64(1<<40), "List", "get_Item", false, uint8(5))
	f.Fuzz(func(t *testing.T, op int64, class, method string, write bool, gor uint8) {
		r := New()
		goroutines := int(gor%8) + 2

		// Each goroutine registers the fuzz tuple plus per-goroutine
		// variants derived from it, concurrently.
		got := make([]ids.SiteID, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r.Register(ids.OpID(op)+ids.OpID(g), class, method, write)
				got[g] = r.Register(ids.OpID(op), class, method, write)
				r.Register(ids.OpID(op), class, method+"x", !write)
			}(g)
		}
		wg.Wait()

		// All goroutines agree on the shared tuple's id.
		for g := 1; g < goroutines; g++ {
			if got[g] != got[0] {
				t.Fatalf("goroutines disagree on shared tuple: %d vs %d", got[g], got[0])
			}
		}
		// Dense, hole-free table; every site re-interns to itself.
		for i, s := range table(r) {
			if s.ID != ids.SiteID(i+1) {
				t.Fatalf("snapshot[%d].ID = %d", i, s.ID)
			}
			if again := r.Register(s.Op, s.Class, s.Method, s.Write); again != s.ID {
				t.Fatalf("site %+v re-interned as %d", s, again)
			}
		}
	})
}

// TestTupleProperties checks, over random tuples drawn from a small space so
// that repeats and near-equal rows are common, what the boundaries that carry
// tuples rely on: Intern is idempotent and refuses a row without a location,
// Tuples returns exactly the interned rows in first-registration order, and
// Less is a strict total order that agrees with == (trapfile's binary-search
// union needs exactly that).
func TestTupleProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	draw := func() Tuple {
		return Tuple{
			Loc:    []string{"", "tp/a.go:1", "tp/a.go:2", "tp/b.go:1"}[rng.Intn(4)],
			Class:  []string{"", "List", "Map"}[rng.Intn(3)],
			Method: []string{"", "Add", "Get"}[rng.Intn(3)],
			Write:  rng.Intn(2) == 0,
		}
	}
	for round := 0; round < 50; round++ {
		r := New()
		var want []Tuple
		id := map[Tuple]ids.SiteID{}
		for i := 0; i < 40; i++ {
			tu := draw()
			got := r.Intern(tu)
			switch prev, seen := id[tu]; {
			case tu.Loc == "":
				if got != 0 {
					t.Fatalf("Intern(%+v) = %d, want 0 for a row without a location", tu, got)
				}
			case seen:
				if got != prev {
					t.Fatalf("Intern(%+v) = %d, then %d", tu, prev, got)
				}
			default:
				id[tu] = got
				want = append(want, tu)
				if got != ids.SiteID(len(want)) {
					t.Fatalf("Intern(%+v) = %d, want the next dense id %d", tu, got, len(want))
				}
			}
		}
		if got := r.Tuples(); !slices.Equal(got, want) {
			t.Fatalf("Tuples() = %+v\nwant the interned rows in order: %+v", got, want)
		}
	}
	if got := (*Registry)(nil).Tuples(); got != nil {
		t.Fatalf("nil registry has tuples %+v", got)
	}

	for i := 0; i < 2000; i++ {
		a, b, c := draw(), draw(), draw()
		holding := 0
		for _, holds := range []bool{a.Less(b), b.Less(a), a == b} {
			if holds {
				holding++
			}
		}
		if holding != 1 {
			t.Fatalf("%+v and %+v: not exactly one of <, >, == holds", a, b)
		}
		if a.Less(b) && b.Less(c) && !a.Less(c) {
			t.Fatalf("Less is not transitive over %+v, %+v, %+v", a, b, c)
		}
	}
}

// call is one instrumented call's prologue: the site of call's caller.
//
//go:noinline
func call(r *Registry, class, method string, write bool) (ids.OpID, ids.SiteID) {
	return r.ForCaller(0, class, method, write)
}

// answer is one ForCaller result, so that two calls fit on one line.
type answer struct {
	op   ids.OpID
	site ids.SiteID
}

func answered(op ids.OpID, site ids.SiteID) answer { return answer{op, site} }

// agree fails the test unless a is what ForCall says for a's op and the
// given tuple.
func agree(t *testing.T, r *Registry, a answer, class, method string, write bool) {
	t.Helper()
	if a.op == 0 {
		t.Fatal("ForCaller found no call site")
	}
	if want := r.ForCall(a.op, class, method, write); a.site != want {
		t.Fatalf("ForCaller says site %d for %s.%s (write %v) at %q, ForCall says %d", a.site, class, method, write, a.op.Key(), want)
	}
}

// TestForCallerAgreesWithForCall: whatever a call path's memo word holds,
// ForCaller's site is ForCall's for the op and tuple asked about — for two
// calls on one source line, and for one call instruction asked about two
// classes and both kinds (as a proxy reached through an interface would).
func TestForCallerAgreesWithForCall(t *testing.T) {
	r := New()
	for pass := 0; pass < 3; pass++ {
		a, b := answered(call(r, "Dictionary", "Set", true)), answered(call(r, "List", "Get", false))
		agree(t, r, a, "Dictionary", "Set", true)
		agree(t, r, b, "List", "Get", false)
		if a.op != b.op || a.site == b.site {
			t.Fatalf("pass %d: two calls on one line: %v and %v", pass, a, b)
		}
		for _, class := range []string{"Dictionary", "List", "Dictionary"} {
			for _, write := range []bool{false, true, false} {
				agree(t, r, answered(call(r, class, "Count", write)), class, "Count", write)
			}
		}
	}
}

// hit is ForCaller's hit test for Dictionary.Set at op, given memo word m.
func hit(r *Registry, m uint64, op ids.OpID) (ids.SiteID, bool) {
	if s := r.remembered(m); s != nil && s.is(op, "Dictionary", "Set", true) {
		return s.ID, true
	}
	return 0, false
}

// viaWord is ForCaller's answer for a call path whose memo word is w: what
// the white-box tests below drive with a word of their own.
func viaWord(r *Registry, w *atomic.Uint64, op ids.OpID) ids.SiteID {
	if id, ok := hit(r, w.Load(), op); ok {
		return id
	}
	return r.forMiss(w, op, "Dictionary", "Set", true)
}

// TestMemoPassesToTheNextRegistry: a registry made after another — the next
// session's, the next harness run's — takes a call path's memo word over on
// its first miss, and from then on hits it without allocating. A word
// naming the earlier registry is never a hit for the later one, even where
// the later one holds the same tuple under the same id.
func TestMemoPassesToTheNextRegistry(t *testing.T) {
	first, second := New(), New()
	for i := 0; i < 3; i++ {
		agree(t, first, answered(call(first, "Dictionary", "Set", true)), "Dictionary", "Set", true)
	}
	var got answer
	if allocs := allocsPerRun(100, func() { got = answered(call(second, "Dictionary", "Set", true)) }); allocs != 0 {
		t.Fatalf("the second registry's calls allocate %.1f times each", allocs)
	}
	agree(t, second, got, "Dictionary", "Set", true)

	var w atomic.Uint64
	op := ids.InternKey("sites_test.go:memo")
	id := viaWord(first, &w, op)
	if again, ok := hit(first, w.Load(), op); !ok || again != id {
		t.Fatalf("the first registry does not hit the word it stored: %d, %v", again, ok)
	}
	second.Register(op, "Dictionary", "Set", true) // as a trap file's site table would
	if _, ok := hit(second, w.Load(), op); ok {
		t.Fatal("the second registry hit a word the first one stored")
	}
	if allocs := allocsPerRun(100, func() { viaWord(second, &w, op) }); allocs != 0 {
		t.Fatalf("taking the word over allocates %.1f times a call", allocs)
	}
	if hit, ok := hit(second, w.Load(), op); !ok || hit != second.ForCall(op, "Dictionary", "Set", true) {
		t.Fatalf("after its first miss the second registry does not hit the word: %d, %v", hit, ok)
	}
}

// TestLiveRegistriesTakingTurns: two registries in use at once on one call
// path both get right answers without allocating, and the one that does not
// hold the memo word rarely stores to it — not on every call, which would
// make each of them move the other's cache line.
func TestLiveRegistriesTakingTurns(t *testing.T) {
	regs := []*Registry{New(), New()}
	for round := 0; round < 50; round++ {
		for _, r := range regs {
			agree(t, r, answered(call(r, "Dictionary", "Set", true)), "Dictionary", "Set", true)
		}
	}
	if allocs := allocsPerRun(100, func() {
		for _, r := range regs {
			call(r, "Dictionary", "Set", true)
		}
	}); allocs != 0 {
		t.Fatalf("alternating calls allocate %.1f times a round", allocs)
	}

	var w atomic.Uint64
	op := ids.InternKey("sites_test.go:turns")
	const rounds = 2000
	changes := 0
	for round := 0; round < rounds; round++ {
		for _, r := range regs {
			before := w.Load()
			if got, want := viaWord(r, &w, op), r.ForCall(op, "Dictionary", "Set", true); got != want {
				t.Fatalf("round %d: site %d, ForCall says %d", round, got, want)
			}
			if w.Load() != before {
				changes++
			}
		}
	}
	if changes > rounds/4 {
		t.Fatalf("the memo word changed hands %d times in %d rounds", changes, rounds)
	}
	t.Logf("the memo word changed hands %d times in %d rounds", changes, rounds)
}

// allocsPerRun is testing.AllocsPerRun on call paths that are already
// resolved: AllocsPerRun calls f from two places, its warm-up and its loop,
// which are two call paths for every proxy f calls, and a call path's first
// call resolves its location, which allocates. The first AllocsPerRun makes
// those first calls.
func allocsPerRun(runs int, f func()) float64 {
	testing.AllocsPerRun(1, f)
	return testing.AllocsPerRun(runs, f)
}
