package instrument

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/collections"
)

func rewriteString(t *testing.T, src string) (string, []Site) {
	t.Helper()
	rw := NewRewriter(DefaultOptions())
	out, sites, changed, err := rw.Rewrite("input.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("no rewrite happened")
	}
	return string(out), sites
}

func TestRewriteConstructorAndMethods(t *testing.T) {
	src := `package demo

import "repro/internal/rawcol"

func build() int {
	cache := rawcol.NewMap[string, int]()
	cache.Add("a", 1)
	cache.Set("b", 2)
	if cache.Contains("a") {
		cache.Delete("a")
	}
	v, _ := cache.Get("b")
	return v + cache.Len()
}
`
	out, sites := rewriteString(t, src)
	for _, want := range []string{
		`"repro/internal/collections"`,
		`tsvd "repro"`,
		`collections.NewDictionary[string, int](tsvd.Default())`,
		`cache.ContainsKey("a")`,
		`cache.Remove("a")`,
		`cache.TryGetValue("b")`,
		`cache.Count()`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "rawcol") {
		t.Errorf("raw package survived:\n%s", out)
	}
	// 1 constructor + 6 method sites.
	if len(sites) != 7 {
		t.Fatalf("got %d sites, want 7: %+v", len(sites), sites)
	}
	writes := 0
	for _, s := range sites {
		if s.Write && !s.Constructor {
			writes++
		}
	}
	if writes != 3 { // Add, Set, Remove
		t.Fatalf("write sites = %d, want 3", writes)
	}

	// The table `tsvd-instrument -sites` writes for them is, byte for byte,
	// what the commit before sites.Tuple existed wrote
	// (testdata/parent/sites.json was captured there).
	var table bytes.Buffer
	if err := EmitSiteTable(&table, sites); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "parent", "sites.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(table.Bytes(), want) {
		t.Errorf("site table:\n%s\nthe parent wrote:\n%s", table.Bytes(), want)
	}
}

func TestRewriteArrayAndChain(t *testing.T) {
	src := `package demo

import "repro/internal/rawcol"

func arrays() {
	xs := rawcol.NewArray[int]()
	xs.Append(1)
	xs.Sort(func(a, b int) bool { return a < b })
	_ = xs.Snapshot()
	_ = xs.Len()

	ch := rawcol.NewChain[string]()
	ch.PushBack("x")
	ch.PushFront("y")
	_ = ch.PopFront()
	_, _ = ch.PeekBack()
}
`
	out, _ := rewriteString(t, src)
	for _, want := range []string{
		"collections.NewList[int](tsvd.Default())",
		"xs.Add(1)",
		"xs.Sort(",
		"xs.ToSlice()",
		"xs.Count()",
		"collections.NewLinkedList[string](tsvd.Default())",
		`ch.AddLast("x")`,
		`ch.AddFirst("y")`,
		"ch.RemoveFirst()",
		"ch.Last()",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRewriteTypeDeclarationsAndFields(t *testing.T) {
	src := `package demo

import "repro/internal/rawcol"

type registry struct {
	users *rawcol.Map[string, int]
	log   *rawcol.Array[string]
}

func (r *registry) record(name string) {
	r.users.Set(name, 1)
	r.log.Append(name)
}

func process(m *rawcol.Map[string, int]) int {
	return m.Len()
}
`
	out, _ := rewriteString(t, src)
	for _, want := range []string{
		"users *collections.Dictionary[string, int]",
		"log   *collections.List[string]",
		"r.users.Set(name, 1)",
		"r.log.Add(name)",
		"m *collections.Dictionary[string, int]",
		"m.Count()",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRewriteSortedMapConstructorArgOrder(t *testing.T) {
	src := `package demo

import "repro/internal/rawcol"

func sorted() {
	sm := rawcol.NewSortedMap[int, string](func(a, b int) bool { return a < b })
	sm.Add(1, "a")
	_ = sm.Contains(1)
}
`
	out, _ := rewriteString(t, src)
	// The detector must be the FIRST argument, before the less func.
	if !strings.Contains(out, "collections.NewSortedDictionary[int, string](tsvd.Default(), func(a, b int) bool") {
		t.Errorf("detector arg not injected first:\n%s", out)
	}
	if !strings.Contains(out, "sm.ContainsKey(1)") {
		t.Errorf("method not renamed:\n%s", out)
	}
}

func TestRewriteLeavesUnrelatedFilesAlone(t *testing.T) {
	src := `package demo

import "fmt"

func main() { fmt.Println("no containers here") }
`
	rw := NewRewriter(DefaultOptions())
	out, sites, changed, err := rw.Rewrite("input.go", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if changed || len(sites) != 0 {
		t.Fatal("unrelated file was modified")
	}
	if string(out) != src {
		t.Fatal("unrelated file content altered")
	}
}

func TestRewriteAliasedImport(t *testing.T) {
	src := `package demo

import rc "repro/internal/rawcol"

func aliased() {
	m := rc.NewMap[int, int]()
	m.Add(1, 1)
}
`
	out, _ := rewriteString(t, src)
	if !strings.Contains(out, "collections.NewDictionary[int, int](tsvd.Default())") {
		t.Errorf("aliased import not handled:\n%s", out)
	}
}

func TestRewriteConflictingIdentifierRejected(t *testing.T) {
	src := `package demo

import "repro/internal/rawcol"

func conflict() {
	x := rawcol.NewMap[int, int]()
	_ = x.Len()
	x2 := x
	_ = x2
	{
		x := rawcol.NewArray[int]()
		_ = x.Len()
	}
}
`
	rw := NewRewriter(DefaultOptions())
	_, _, _, err := rw.Rewrite("input.go", []byte(src))
	if err == nil {
		t.Fatal("conflicting identifier classes accepted")
	}
	if !strings.Contains(err.Error(), `"x"`) {
		t.Fatalf("error does not name the identifier: %v", err)
	}
}

func TestRewriteOutputParses(t *testing.T) {
	// The rewritten output must be valid Go (round-trips the parser).
	src := `package demo

import "repro/internal/rawcol"

func roundtrip() {
	m := rawcol.NewMap[string, []int]()
	m.Set("xs", []int{1, 2})
	m.Range(func(k string, v []int) bool { return true })
}
`
	out, _ := rewriteString(t, src)
	rw := NewRewriter(DefaultOptions())
	if _, _, _, err := rw.Rewrite("out.go", []byte(out)); err != nil {
		t.Fatalf("rewritten output does not parse: %v\n%s", err, out)
	}
	if !strings.Contains(out, "m.ForEach(func(k string, v []int) bool") {
		t.Errorf("Range not renamed to ForEach:\n%s", out)
	}
}

func TestRewriteDir(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a.go", `package p

import "repro/internal/rawcol"

func a() { m := rawcol.NewMap[int, int](); m.Add(1, 1) }
`)
	write("b.go", "package p\n\nfunc b() {}\n")
	write("skip_test.go", `package p

import "repro/internal/rawcol"

func c() { _ = rawcol.NewMap[int, int]() }
`)
	write("testdata/ignored.go", `package q

import "repro/internal/rawcol"

func d() { _ = rawcol.NewMap[int, int]() }
`)

	// Dry run first: nothing on disk changes.
	res, err := RewriteDir(dir, DefaultOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FilesChanged) != 1 || filepath.Base(res.FilesChanged[0]) != "a.go" {
		t.Fatalf("FilesChanged = %v", res.FilesChanged)
	}
	orig, _ := os.ReadFile(filepath.Join(dir, "a.go"))
	if !strings.Contains(string(orig), "rawcol") {
		t.Fatal("dry run modified the file")
	}
	if len(res.CallSites()) != 1 { // Add only; constructor excluded
		t.Fatalf("CallSites = %+v", res.CallSites())
	}

	// Real run rewrites a.go only.
	if _, err := RewriteDir(dir, DefaultOptions(), true); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(filepath.Join(dir, "a.go"))
	if !strings.Contains(string(got), "collections.NewDictionary") {
		t.Fatalf("a.go not rewritten:\n%s", got)
	}
	testFile, _ := os.ReadFile(filepath.Join(dir, "skip_test.go"))
	if !strings.Contains(string(testFile), "rawcol") {
		t.Fatal("_test.go was rewritten")
	}
	td, _ := os.ReadFile(filepath.Join(dir, "testdata", "ignored.go"))
	if !strings.Contains(string(td), "rawcol") {
		t.Fatal("testdata was rewritten")
	}
}

func TestRewriteHeapAndBits(t *testing.T) {
	src := `package demo

import "repro/internal/rawcol"

func scheduling() {
	pq := rawcol.NewHeap[int](func(a, b int) bool { return a < b })
	pq.Push(3)
	_ = pq.Pop()
	_, _ = pq.Peek()
	_ = pq.Len()

	flags := rawcol.NewBits(128)
	flags.Set(3, true)
	_ = flags.Get(3)
	_ = flags.OnesCount()
}
`
	out, sites := rewriteString(t, src)
	for _, want := range []string{
		"collections.NewPriorityQueue[int](tsvd.Default(), func(a, b int) bool",
		"pq.Enqueue(3)",
		"pq.Dequeue()",
		"pq.Peek()",
		"pq.Count()",
		"collections.NewBitArray(tsvd.Default(), 128)",
		"flags.Set(3, true)",
		"flags.Get(3)",
		"flags.OnesCount()",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if len(sites) != 9 { // 2 ctors + 7 method sites
		t.Fatalf("got %d sites, want 9: %+v", len(sites), sites)
	}
}

// TestSiteKindsAgreeWithRegistry drives every API of every mapped class
// through the rewriter and requires the reported Site.Write — what
// `tsvd-instrument -sites` prints — to equal the kind collections.Registry
// gives the method, which is the kind the proxy reports to OnCall at run
// time. It also requires every method-rename target to be a registered API.
func TestSiteKindsAgreeWithRegistry(t *testing.T) {
	apis := collections.Registry()
	for _, m := range DefaultMappings() {
		class, ok := apis[m.InstType]
		if !ok {
			t.Errorf("%s maps to %s, which collections.Registry does not list", m.RawType, m.InstType)
			continue
		}
		rawName := map[string]string{} // instrumented method → raw spelling
		for raw, inst := range m.Methods {
			if _, ok := class[inst]; !ok {
				t.Errorf("%s.%s is renamed to %s.%s, which is not a registered API", m.RawType, raw, m.InstType, inst)
			}
			rawName[inst] = raw
		}

		var src strings.Builder
		fmt.Fprintf(&src, "package demo\n\nimport \"repro/internal/rawcol\"\n\nfunc f() {\n\tx := rawcol.%s[int]()\n", m.RawConstructor)
		for method := range class {
			raw := method
			if r, ok := rawName[method]; ok {
				raw = r
			}
			fmt.Fprintf(&src, "\tx.%s()\n", raw)
		}
		src.WriteString("}\n")

		_, sites := rewriteString(t, src.String())
		seen := map[string]bool{}
		for _, s := range sites {
			if s.Constructor {
				continue
			}
			seen[s.Method] = true
			if want := class[s.Method] == collections.Write; s.Write != want {
				t.Errorf("%s.%s: site table says write=%v, registry says write=%v", s.Class, s.Method, s.Write, want)
			}
		}
		for method := range class {
			if !seen[method] {
				t.Errorf("%s.%s: call site was not reported", m.InstType, method)
			}
		}
	}
}
