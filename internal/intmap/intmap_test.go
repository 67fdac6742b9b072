package intmap

import (
	"sync"
	"testing"
)

// TestGetOrInitBasics: insertion round-trips through every lookup path,
// creation happens exactly once per key, and absent keys stay absent.
func TestGetOrInitBasics(t *testing.T) {
	var m Map[int]
	if m.Get(1) != nil {
		t.Fatal("empty map returned a value")
	}
	if v, ok := m.GetFast(1); v != nil || ok {
		t.Fatal("empty map GetFast returned a value or claimed a conclusive miss")
	}

	v1, created := m.GetOrInit(1, func(v *int) { *v = 11 })
	if !created || *v1 != 11 {
		t.Fatalf("first GetOrInit: created=%v v=%v", created, v1)
	}
	v2, created := m.GetOrInit(1, func(v *int) { *v = 99 })
	if created || v2 != v1 || *v2 != 11 {
		t.Fatalf("second GetOrInit: created=%v, pointer changed=%v, value %d", created, v2 != v1, *v2)
	}
	if got := m.Get(1); got != v1 {
		t.Fatalf("Get(1) = %v, want %v", got, v1)
	}
	if got := m.Get(2); got != nil {
		t.Fatalf("Get(2) = %v, want nil", got)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

// TestGetFastConsistentWithGet: GetFast either agrees with Get or returns
// ok == false — it may not fabricate a hit or a conclusive miss. Exercised
// across enough keys to cover both home-slot hits and probe-chain misses.
func TestGetFastConsistentWithGet(t *testing.T) {
	var m Map[int64]
	const n = 500
	for k := int64(0); k < n; k++ {
		m.GetOrInit(k, func(v *int64) { *v = k })
	}
	for k := int64(0); k < 2*n; k++ {
		want := m.Get(k)
		got, ok := m.GetFast(k)
		if ok && got != want {
			t.Fatalf("GetFast(%d) = %v conclusive, Get = %v", k, got, want)
		}
		if want != nil && *want != k {
			t.Fatalf("Get(%d) holds %d", k, *want)
		}
	}
	// At least some keys must hit the inlinable fast path, or the detector's
	// cheap path would silently always fall back to the full probe.
	hits := 0
	for k := int64(0); k < n; k++ {
		if _, ok := m.GetFast(k); ok {
			hits++
		}
	}
	if hits < n/2 {
		t.Fatalf("only %d/%d keys conclusive in GetFast — home-slot rate collapsed", hits, n)
	}
}

// TestGrowthPreservesEntries inserts far past the initial table size and
// growth threshold, then verifies every key through both lookup paths and
// an Each sweep.
func TestGrowthPreservesEntries(t *testing.T) {
	var m Map[int64]
	const n = 10_000
	for k := int64(1); k <= n; k++ {
		_, created := m.GetOrInit(k, func(v *int64) { *v = k })
		if !created {
			t.Fatalf("key %d reported pre-existing", k)
		}
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for k := int64(1); k <= n; k++ {
		v := m.Get(k)
		if v == nil || *v != k {
			t.Fatalf("Get(%d) = %v after growth", k, v)
		}
	}
	seen := map[int64]bool{}
	m.Each(func(k int64, v *int64) {
		if seen[k] {
			t.Fatalf("Each visited key %d twice", k)
		}
		if *v != k {
			t.Fatalf("Each: key %d holds %d", k, *v)
		}
		seen[k] = true
	})
	if len(seen) != n {
		t.Fatalf("Each visited %d entries, want %d", len(seen), n)
	}
}

// TestNegativeAndLargeKeys: the map is keyed by int64s that include packed
// (op<<1|kind) keys and fabricated test ids — sign and magnitude must not
// matter (only the slotEmpty sentinel, MinInt64, is reserved).
func TestNegativeAndLargeKeys(t *testing.T) {
	var m Map[int64]
	keys := []int64{-1, -7, 0, 1, 1 << 40, -(1 << 40), (1 << 62) + 3}
	for _, k := range keys {
		m.GetOrInit(k, func(v *int64) { *v = k })
	}
	for _, k := range keys {
		if v := m.Get(k); v == nil || *v != k {
			t.Fatalf("Get(%d) = %v", k, v)
		}
		if v, ok := m.GetFast(k); ok && *v != k {
			t.Fatalf("GetFast(%d) fabricated %v", k, v)
		}
	}
}

// TestConcurrentGetOrInit: racing creators for one key agree on a single
// winner, and exactly one observes created == true.
func TestConcurrentGetOrInit(t *testing.T) {
	var m Map[int]
	const goroutines = 16
	const keys = 100

	var wg sync.WaitGroup
	winners := make([]int, keys) // updated only by created==true observers, one per key
	ptrs := make([][]*int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]*int, keys)
			for k := 0; k < keys; k++ {
				v, created := m.GetOrInit(int64(k), func(v *int) { *v = g })
				if created {
					winners[k]++ // safe: one winner per key, distinct slots
				}
				out[k] = v
			}
			ptrs[g] = out
		}(g)
	}
	wg.Wait()

	for k := 0; k < keys; k++ {
		if winners[k] != 1 {
			t.Fatalf("key %d had %d creators", k, winners[k])
		}
		for g := 1; g < goroutines; g++ {
			if ptrs[g][k] != ptrs[0][k] {
				t.Fatalf("key %d: goroutines hold different values", k)
			}
		}
	}
	if m.Len() != keys {
		t.Fatalf("Len = %d, want %d", m.Len(), keys)
	}
}

// TestConcurrentReadDuringGrowth hammers Get/GetFast while an inserter
// forces repeated table growth; readers must never see a wrong value, and
// keys inserted before the readers started must never go missing.
func TestConcurrentReadDuringGrowth(t *testing.T) {
	var m Map[int64]
	const preInserted = 256
	for k := int64(0); k < preInserted; k++ {
		m.GetOrInit(k, func(v *int64) { *v = k })
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for k := int64(0); k < preInserted; k++ {
					if v := m.Get(k); v == nil || *v != k {
						t.Errorf("Get(%d) = %v during growth", k, v)
						return
					}
					if v, ok := m.GetFast(k); ok && *v != k {
						t.Errorf("GetFast(%d) fabricated %v during growth", k, v)
						return
					}
				}
			}
		}()
	}
	for k := int64(preInserted); k < preInserted+20_000; k++ {
		m.GetOrInit(k, func(v *int64) { *v = k })
	}
	close(stop)
	wg.Wait()
}

// chunksFor is how many value chunks n inserts may buy: chunks of 8, 8, 16,
// 32, … hold 8·2^(c-1) values after c of them, so ⌈log2(n/8)⌉ + 1.
func chunksFor(n int) int {
	c := 1
	for held := 8; held < n; held *= 2 {
		c++
	}
	return c
}

// tablesFor is how many tables n inserts build: the first, and one per
// growth past three-quarters full.
func tablesFor(n int) int {
	tables, size := 1, 64
	for count := 1; count <= n; count++ {
		if count*4 > size*3 {
			tables, size = tables+1, size*2
		}
	}
	return tables
}

// TestInsertsCostLogarithmicChunks: values come from chunks the map
// allocates, so n inserts cost ⌈log2(n/8)⌉ + 1 value allocations plus the
// tables (two allocations each: the header and its slots) — not one each.
// An init that captures the caller's variables must not allocate either.
func TestInsertsCostLogarithmicChunks(t *testing.T) {
	for _, n := range []int{1, 8, 9, 17, 100, 1000, 5000} {
		const runs = 5
		maps := make([]Map[int64], runs+1)
		run := 0
		got := testing.AllocsPerRun(runs, func() {
			m := &maps[run]
			run++
			for k := int64(0); k < int64(n); k++ {
				m.GetOrInit(k, func(v *int64) { *v = k })
			}
		})
		if want := chunksFor(n) + 2*tablesFor(n); got > float64(want) {
			t.Errorf("%d inserts cost %v allocations, want at most %d chunks + %d tables × 2", n, got, chunksFor(n), tablesFor(n))
		}
	}
}

// TestPointersStableAcrossGrowthAndChunks: a value's address is fixed at its
// insertion — through every table growth and every new chunk after it — and
// what was written through it is what every later lookup finds.
func TestPointersStableAcrossGrowthAndChunks(t *testing.T) {
	var m Map[[3]int64]
	const n = 20_000
	ptrs := make([]*[3]int64, n)
	for k := range ptrs {
		v, _ := m.GetOrInit(int64(k), nil)
		v[0], v[2] = int64(k), -int64(k)
		ptrs[k] = v
	}
	for k, p := range ptrs {
		if got := m.Get(int64(k)); got != p {
			t.Fatalf("key %d moved from %p to %p", k, p, got)
		}
		if v, created := m.GetOrInit(int64(k), nil); created || v != p {
			t.Fatalf("key %d: GetOrInit created=%v, pointer changed=%v", k, created, v != p)
		}
		if *p != [3]int64{int64(k), 0, -int64(k)} {
			t.Fatalf("key %d holds %v", k, *p)
		}
	}
}

// TestInitSeesZeroedValue: init is handed a zero value on every insert, in
// the first chunk and in every later one.
func TestInitSeesZeroedValue(t *testing.T) {
	type rec struct {
		a, b int64
		p    *int
		s    []byte
	}
	var m Map[rec]
	x := 1
	for k := int64(0); k < 1000; k++ {
		m.GetOrInit(k, func(v *rec) {
			if v.a != 0 || v.b != 0 || v.p != nil || v.s != nil {
				t.Fatalf("init of key %d saw %+v", k, *v)
			}
			*v = rec{a: k, b: ^k, p: &x, s: []byte{1}}
		})
	}
}
