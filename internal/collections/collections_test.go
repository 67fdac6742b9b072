package collections

import (
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
)

func newDet(t *testing.T, algo config.Algorithm) core.Detector {
	t.Helper()
	d, err := core.New(config.Defaults(algo).Scaled(0.1))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDictionaryUninstrumentedBehaviour(t *testing.T) {
	d := NewDictionary[string, int](nil)
	d.Add("a", 1)
	d.Set("b", 2)
	if !d.ContainsKey("a") || d.ContainsKey("z") {
		t.Fatal("ContainsKey wrong")
	}
	if v, ok := d.TryGetValue("b"); !ok || v != 2 {
		t.Fatal("TryGetValue wrong")
	}
	if d.Get("a") != 1 {
		t.Fatal("Get wrong")
	}
	if v, existed := d.GetOrAdd("c", 3); existed || v != 3 {
		t.Fatal("GetOrAdd wrong")
	}
	if d.Count() != 3 || len(d.Keys()) != 3 || len(d.Values()) != 3 {
		t.Fatal("Count/Keys/Values wrong")
	}
	seen := 0
	d.ForEach(func(string, int) bool { seen++; return true })
	if seen != 3 {
		t.Fatalf("ForEach visited %d", seen)
	}
	if !d.Remove("a") || d.Remove("a") {
		t.Fatal("Remove wrong")
	}
	d.Clear()
	if d.Count() != 0 {
		t.Fatal("Clear wrong")
	}
}

func TestListUninstrumentedBehaviour(t *testing.T) {
	l := NewList[int](nil)
	l.Add(3)
	l.Add(1)
	l.Insert(1, 2) // 3,2,1
	if l.Count() != 3 || l.Get(1) != 2 {
		t.Fatal("Add/Insert/Get wrong")
	}
	if !l.Contains(3) || l.Contains(9) || l.IndexOf(1) != 2 {
		t.Fatal("Contains/IndexOf wrong")
	}
	l.Sort(func(a, b int) bool { return a < b }) // 1,2,3
	if got := l.ToSlice(); got[0] != 1 || got[2] != 3 {
		t.Fatalf("Sort wrong: %v", got)
	}
	l.Set(0, 9)
	l.RemoveAt(2)
	if !l.Remove(2) || l.Remove(2) {
		t.Fatal("Remove wrong")
	}
	sum := 0
	l.ForEach(func(_ int, v int) bool { sum += v; return true })
	if sum != 9 {
		t.Fatalf("ForEach sum = %d", sum)
	}
	l.Clear()
	if l.Count() != 0 {
		t.Fatal("Clear wrong")
	}
}

func TestHashSetBehaviour(t *testing.T) {
	s := NewHashSet[string](nil)
	if !s.Add("a") || s.Add("a") {
		t.Fatal("Add wrong")
	}
	s.UnionWith([]string{"b", "c", "a"})
	if s.Count() != 3 || !s.Contains("b") {
		t.Fatal("UnionWith/Contains wrong")
	}
	if len(s.ToSlice()) != 3 {
		t.Fatal("ToSlice wrong")
	}
	if !s.Remove("a") || s.Remove("a") {
		t.Fatal("Remove wrong")
	}
	s.Clear()
	if s.Count() != 0 {
		t.Fatal("Clear wrong")
	}
}

func TestQueueStackBehaviour(t *testing.T) {
	q := NewQueue[int](nil)
	q.Enqueue(1)
	q.Enqueue(2)
	if v, ok := q.Peek(); !ok || v != 1 {
		t.Fatal("Peek wrong")
	}
	if q.Dequeue() != 1 || q.Count() != 1 {
		t.Fatal("Dequeue wrong")
	}
	if got := q.ToSlice(); len(got) != 1 || got[0] != 2 {
		t.Fatal("ToSlice wrong")
	}
	q.Clear()
	if q.Count() != 0 {
		t.Fatal("Clear wrong")
	}

	s := NewStack[int](nil)
	s.Push(1)
	s.Push(2)
	if v, ok := s.Peek(); !ok || v != 2 {
		t.Fatal("stack Peek wrong")
	}
	if s.Pop() != 2 || s.Count() != 1 {
		t.Fatal("Pop wrong")
	}
	if got := s.ToSlice(); len(got) != 1 || got[0] != 1 {
		t.Fatal("stack ToSlice wrong")
	}
	s.Clear()
	if s.Count() != 0 {
		t.Fatal("stack Clear wrong")
	}
}

func TestSortedDictionaryBehaviour(t *testing.T) {
	d := NewSortedDictionary[int, string](nil, func(a, b int) bool { return a < b })
	d.Add(2, "b")
	d.Add(1, "a")
	d.Set(3, "c")
	if d.Count() != 3 || !d.ContainsKey(2) {
		t.Fatal("Add/Set/ContainsKey wrong")
	}
	if v, ok := d.TryGetValue(1); !ok || v != "a" {
		t.Fatal("TryGetValue wrong")
	}
	if keys := d.Keys(); keys[0] != 1 || keys[2] != 3 {
		t.Fatalf("Keys not sorted: %v", keys)
	}
	if k, v, ok := d.Min(); !ok || k != 1 || v != "a" {
		t.Fatal("Min wrong")
	}
	if !d.Remove(1) || d.Remove(1) {
		t.Fatal("Remove wrong")
	}
	d.Clear()
	if d.Count() != 0 {
		t.Fatal("Clear wrong")
	}
}

func TestLinkedListBehaviour(t *testing.T) {
	l := NewLinkedList[string](nil)
	l.AddLast("b")
	l.AddFirst("a")
	l.AddLast("c")
	if f, _ := l.First(); f != "a" {
		t.Fatal("First wrong")
	}
	if b, _ := l.Last(); b != "c" {
		t.Fatal("Last wrong")
	}
	if l.Count() != 3 || !l.Contains("b") || l.Contains("z") {
		t.Fatal("Count/Contains wrong")
	}
	if l.RemoveFirst() != "a" || l.RemoveLast() != "c" {
		t.Fatal("RemoveFirst/Last wrong")
	}
	if !l.Remove("b") || l.Remove("b") {
		t.Fatal("Remove wrong")
	}
	l.AddLast("x")
	l.Clear()
	if l.Count() != 0 || len(l.ToSlice()) != 0 {
		t.Fatal("Clear wrong")
	}
}

func TestStringBuilderBehaviour(t *testing.T) {
	b := NewStringBuilder(nil)
	b.Append("hello")
	b.AppendLine(" world")
	if got := b.String(); got != "hello world\n" {
		t.Fatalf("String = %q", got)
	}
	if b.Len() != len("hello world\n") {
		t.Fatalf("Len = %d", b.Len())
	}
	b.Reset()
	if b.String() != "" || b.Len() != 0 {
		t.Fatal("Reset wrong")
	}
}

func TestCounterBehaviour(t *testing.T) {
	c := NewCounter(nil)
	c.Increment()
	c.Increment()
	c.Decrement()
	c.AddDelta(10)
	if c.Value() != 11 {
		t.Fatalf("Value = %d, want 11", c.Value())
	}
	c.SetValue(-3)
	if c.Value() != -3 {
		t.Fatalf("Value = %d, want -3", c.Value())
	}
}

func TestMultiMapBehaviour(t *testing.T) {
	m := NewMultiMap[string, int](nil)
	m.Add("a", 1)
	m.Add("a", 2)
	m.Add("b", 3)
	if m.Count() != 2 || !m.ContainsKey("a") {
		t.Fatal("Add/Count/ContainsKey wrong")
	}
	if vs := m.Get("a"); len(vs) != 2 || vs[0] != 1 || vs[1] != 2 {
		t.Fatalf("Get = %v", vs)
	}
	if m.Get("zzz") != nil {
		t.Fatal("Get missing key should be nil")
	}
	if !m.RemoveKey("a") || m.RemoveKey("a") {
		t.Fatal("RemoveKey wrong")
	}
	m.Clear()
	if m.Count() != 0 {
		t.Fatal("Clear wrong")
	}
}

func TestRegistryCoverage(t *testing.T) {
	var classes, reads, writes int
	for _, apis := range Registry() {
		classes++
		for _, kind := range apis {
			if kind == Write {
				writes++
			} else {
				reads++
			}
		}
	}
	if classes != 13 {
		t.Fatalf("classes = %d, want 13", classes)
	}
	// The paper classifies 59 write and 64 read APIs over 14 classes; our
	// registry is the same shape at Go scale. Guard rough proportions.
	if reads < 30 || writes < 40 {
		t.Fatalf("registry too thin: %d reads, %d writes", reads, writes)
	}
	// Every class must have at least one read and one write API, or the
	// read/write contract is meaningless.
	for class, apis := range Registry() {
		var hasRead, hasWrite bool
		for _, k := range apis {
			if k == Read {
				hasRead = true
			} else {
				hasWrite = true
			}
		}
		if !hasRead || !hasWrite {
			t.Fatalf("class %s lacks read or write APIs", class)
		}
	}
}

// TestFigure1BugDetected reproduces the paper's Figure 1 verbatim: thread 1
// calls dict.Add(key1, ...) while thread 2 calls dict.ContainsKey(key2) —
// different keys, still a TSV.
func TestFigure1BugDetected(t *testing.T) {
	det := newDet(t, config.AlgoTSVD)
	dict := NewDictionary[string, int](det)

	done1 := make(chan struct{})
	done2 := make(chan struct{})
	go func() {
		defer close(done1)
		for i := 0; i < 200; i++ {
			func() {
				defer func() { recover() }() // duplicate-key panics are part of the TSV
				dict.Add("key1", i)
			}()
			dict.Remove("key1")
			time.Sleep(time.Millisecond)
		}
	}()
	go func() {
		defer close(done2)
		for i := 0; i < 200; i++ {
			dict.ContainsKey("key2")
			time.Sleep(time.Millisecond)
		}
	}()
	<-done1
	<-done2

	bugs := det.Reports().Bugs()
	if len(bugs) == 0 {
		t.Fatal("Figure 1 bug not detected")
	}
	// At least one bug must involve ContainsKey vs a write API.
	foundRW := false
	for _, b := range bugs {
		v := b.First
		methods := v.Trapped.Method + "/" + v.Conflicting.Method
		if strings.Contains(methods, "ContainsKey") {
			foundRW = true
			if !v.ReadWrite() {
				t.Fatalf("ContainsKey conflict not read-write: %+v", v)
			}
		}
	}
	if !foundRW {
		t.Fatalf("no ContainsKey/write conflict among %d bugs", len(bugs))
	}
}

// TestReportPointsAtUserCode: the op ids in a report must resolve to this
// test file (the user call sites), not to the collections wrappers.
func TestReportPointsAtUserCode(t *testing.T) {
	det := newDet(t, config.AlgoTSVD)
	list := NewList[int](det)

	done1 := make(chan struct{})
	done2 := make(chan struct{})
	go func() {
		defer close(done1)
		for i := 0; i < 200; i++ {
			list.Add(i)
			time.Sleep(time.Millisecond)
		}
	}()
	go func() {
		defer close(done2)
		for i := 0; i < 200; i++ {
			list.Clear()
			time.Sleep(time.Millisecond)
		}
	}()
	<-done1
	<-done2

	vs := det.Reports().Violations()
	if len(vs) == 0 {
		t.Fatal("no violation detected")
	}
	for _, v := range vs[:1] {
		for _, loc := range []string{v.Trapped.Op.Location(), v.Conflicting.Op.Location()} {
			if !strings.Contains(loc, "collections_test.go") {
				t.Fatalf("report location %q does not point at user code", loc)
			}
		}
		if !strings.Contains(v.Trapped.Stack, "collections_test.go") {
			t.Fatalf("trapped stack lacks user frame:\n%s", v.Trapped.Stack)
		}
	}
}

// TestDistinctObjectsDistinctIDs: containers must never share object ids,
// or unrelated accesses would be correlated.
func TestDistinctObjectsDistinctIDs(t *testing.T) {
	a := NewDictionary[int, int](nil)
	b := NewDictionary[int, int](nil)
	c := NewList[int](nil)
	if a.ObjectID() == b.ObjectID() || b.ObjectID() == c.ObjectID() {
		t.Fatal("object ids collide")
	}
}

// TestNoDetectorOverheadPath: nil-detector containers never call OnCall
// (guarded by the Figure-1 workload finishing instantly).
func TestNilDetectorSkipsInstrumentation(t *testing.T) {
	dict := NewDictionary[int, int](nil)
	start := time.Now()
	for i := 0; i < 100000; i++ {
		dict.Set(i%100, i)
		dict.ContainsKey(i % 100)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("nil-detector path is suspiciously slow")
	}
}
