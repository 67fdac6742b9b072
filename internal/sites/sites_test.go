package sites

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
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

// TestForOpKindFallback: an access carrying only an OpID resolves to the
// first site registered for (op, kind), or auto-registers an anonymous one.
func TestForOpKindFallback(t *testing.T) {
	r := New()

	// Unknown op: auto-registered with empty metadata.
	anon := r.ForOpKind(21, true)
	if anon == 0 {
		t.Fatal("ForOpKind returned the zero id")
	}
	if s := r.Info(anon); s.Op != 21 || s.Class != "" || s.Method != "" || !s.Write {
		t.Fatalf("anonymous site = %+v", s)
	}
	if again := r.ForOpKind(21, true); again != anon {
		t.Fatalf("second ForOpKind got %d, want %d", again, anon)
	}

	// Known op: the first registration for that (op, kind) wins.
	first := r.Register(22, "Set", "Contains", false)
	r.Register(22, "Set", "Count", false) // same (op, kind), later
	if got := r.ForOpKind(22, false); got != first {
		t.Fatalf("ForOpKind(22, read) = %d, want first-registered %d", got, first)
	}
	// The write kind of the same op is a distinct site.
	if got := r.ForOpKind(22, true); got == first {
		t.Fatal("write kind resolved to the read site")
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
		// ForOpKind agrees with the fuzz tuple's id (it was the first
		// registration for its (op, kind) unless a variant beat it; either
		// way the result must resolve to a site with that op and kind).
		res := r.ForOpKind(ids.OpID(op), write)
		if s := r.Info(res); s.Op != ids.OpID(op) || s.Write != write {
			t.Fatalf("ForOpKind resolved to wrong site %+v", s)
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
