package e2e

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/collections"
)

// productionCallerExceptions are the exported functions and methods under
// internal/ that no non-test file names, keyed <package>.<name> or
// <package>.<type>.<name>, each with the one reason it stays.
var productionCallerExceptions = map[string]string{
	"core.CheckCounters":             "a checker tests reconcile metrics against",
	"trace.CheckDir":                 "a checker tests validate trace directories with",
	"vclock.Concurrent":              "a reference the clock tests compare against",
	"vclock.HappenedBefore":          "a reference the clock tests compare against",
	"ids.FormatStack":                "a reference report stacks are tested against",
	"core.WithClock":                 "a seam tests substitute a fake clock through",
	"trapfile.SetTestHookAfterWrite": "a seam tests plant a write fault through",
	"trace.Tracer.Capacity":          "an accessor tests observe the ring size through",
	"task.Task.Inlined":              "an accessor tests observe inline execution through",
	"clock.Budget.Used":              "an accessor tests observe the delay budget through",
	"ids.ThreadIDFailures":           "an accessor tests observe thread identity through",
	"task.WhenAll":                   "DESIGN.md's substitution table cites it",
}

// TestProductionCodeHasProductionCallers: every exported function and method
// declared in non-test Go under internal/ is named by some non-test file of
// the module — a command, the public package, an example, the benchmark or
// another internal package — outside its own declaration, or is one of
// productionCallerExceptions. Code only tests reach is deleted, not kept.
func TestProductionCodeHasProductionCallers(t *testing.T) {
	type decl struct{ key, pos string }
	var decls []decl
	named := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(repoRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != repoRoot && (n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(relTo(repoRoot, path))
		for _, dc := range f.Decls {
			fd, ok := dc.(*ast.FuncDecl)
			if !ok {
				ast.Inspect(dc, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						named[id.Name] = true
					}
					return true
				})
				continue
			}
			own := fd.Name.Name
			addNamesUsedBy(fd, named)
			if strings.HasPrefix(rel, "internal/") && fd.Name.IsExported() {
				key := f.Name.Name + "." + own
				if fd.Recv != nil {
					key = f.Name.Name + "." + recvName(fd) + "." + own
				}
				decls = append(decls, decl{key, fset.Position(fd.Pos()).String()})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported functions found under internal/; the walk saw nothing")
	}
	// A container method the API list names is reached without an
	// identifier: tsvd-instrument rewrites a program's raw calls into calls
	// to it.
	for class, api := range collections.Registry() {
		for method := range api {
			named["collections."+class+"."+method] = true
		}
	}
	var unreached []string
	excepted := map[string]bool{}
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		reached := named[name] || named[d.key]
		if productionCallerExceptions[d.key] != "" {
			excepted[d.key] = true
			if reached {
				t.Errorf("exception %s: non-test code names it; drop its row", d.key)
			}
		} else if !reached {
			unreached = append(unreached, d.key+" ("+relTo(repoRoot, d.pos)+")")
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s: no non-test file names it; delete it, or add an exception with its reason", u)
	}
	for key := range productionCallerExceptions {
		if !excepted[key] {
			t.Errorf("exception %s names no exported function or method under internal/", key)
		}
	}
}

// addNamesUsedBy adds to named every identifier fd's declaration uses except
// its own name and its calls to itself: a recursive call is not a caller.
// A same-named function of another package, as when the public package
// wraps an internal constructor, is a caller.
func addNamesUsedBy(fd *ast.FuncDecl, named map[string]bool) {
	own, recv := fd.Name.Name, ""
	if fd.Recv != nil && len(fd.Recv.List[0].Names) > 0 {
		recv = fd.Recv.List[0].Names[0].Name
	}
	qualified := map[*ast.Ident]bool{}
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && recv != "" && x.Name == recv && n.Sel.Name == own {
				return false
			}
			qualified[n.Sel] = true
		case *ast.Ident:
			if n != fd.Name && (n.Name != own || qualified[n] || fd.Recv != nil) {
				named[n.Name] = true
			}
		}
		return true
	})
}
