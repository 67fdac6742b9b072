package e2e

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trapstore"
)

// The docs lint keeps the operator docs honest against the Go source. It
// covers the prose this repository's builders own — README.md, DESIGN.md,
// EXPERIMENTS.md and docs/*.md — and deliberately not the pipeline-owned
// files (ROADMAP.md, CHANGES.md, ISSUE.md, PAPER.md, PAPERS.md, SNIPPETS.md):
// a change log names deleted symbols for ever, and a re-anchored roadmap
// must not be able to break tier-1.

// docFiles returns the linted markdown files, sorted for stable output.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{
		filepath.Join(repoRoot, "README.md"),
		filepath.Join(repoRoot, "DESIGN.md"),
		filepath.Join(repoRoot, "EXPERIMENTS.md"),
	}
	more, err := filepath.Glob(filepath.Join(repoRoot, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	if len(more) == 0 {
		t.Fatal("no docs/*.md found; is the test running from internal/e2e?")
	}
	files = append(files, more...)
	sort.Strings(files)
	return files
}

// readDoc returns a doc's text and its repo-relative name.
func readDoc(t *testing.T, path string) (text, rel string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), relTo(repoRoot, path)
}

// TestDocsLinksResolve: every intra-repository markdown link resolves — the
// target file exists, and when the link carries a #fragment, the target has
// a heading whose GitHub-style anchor slug matches.
func TestDocsLinksResolve(t *testing.T) {
	links := 0
	for _, doc := range docFiles(t) {
		text, _ := readDoc(t, doc)
		for _, target := range markdownLinks(text) {
			links++
			checkLink(t, doc, target)
		}
	}
	if links == 0 {
		t.Fatal("no markdown links found; the link pattern matches nothing")
	}
}

// TestDocsSymbolsExist: every `Config.X` the docs mention is a field or a
// method of config.Config, every `<pkg>.X` — `tsvd.X` for the public package,
// `trace.X` for internal/trace and so on — is a package-level declaration of
// that package (its tests included, which docs cite as gates), and every
// `<pkg>.Type.Member` is a field or method of that type: renamed or removed
// names cannot survive in prose.
func TestDocsSymbolsExist(t *testing.T) {
	configMembers, err := typeMembers(filepath.Join(repoRoot, "internal", "config"), "Config")
	if err != nil {
		t.Fatalf("internal/config: %v", err)
	}
	pkgDirs := map[string]string{"tsvd": repoRoot}
	entries, err := os.ReadDir(filepath.Join(repoRoot, "internal"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			pkgDirs[e.Name()] = filepath.Join(repoRoot, "internal", e.Name())
		}
	}
	for name := range pkgDirs {
		names = append(names, name)
	}
	pkgRef := regexp.MustCompile(`(?:^|[^A-Za-z0-9_./-])(` + strings.Join(names, "|") +
		`)\.([A-Z][A-Za-z0-9_]*)(?:\.([A-Z][A-Za-z0-9_]*))?`)
	decls := map[string]*pkgDecls{}
	refs := 0
	for _, doc := range docFiles(t) {
		text, rel := readDoc(t, doc)
		for _, m := range referenced(text, configRef) {
			refs++
			if !configMembers[m] {
				t.Errorf("%s: Config.%s is neither a field nor a method of config.Config", rel, m)
			}
		}
		for _, m := range pkgRef.FindAllStringSubmatch(text, -1) {
			refs++
			pkg, sym, member := m[1], m[2], m[3]
			d := decls[pkg]
			if d == nil {
				if d, err = declsOf(pkgDirs[pkg]); err != nil {
					t.Fatalf("%s: %v", pkg, err)
				}
				decls[pkg] = d
			}
			switch {
			case !d.syms[sym]:
				t.Errorf("%s: %s.%s is not declared in package %s", rel, pkg, sym, pkg)
			case member != "" && d.members[sym] != nil && !d.has(sym, member):
				t.Errorf("%s: %s.%s.%s is neither a field nor a method of %s.%s", rel, pkg, sym, member, pkg, sym)
			}
		}
	}
	if refs == 0 {
		t.Fatal("no Config.X or <pkg>.X references found; the patterns match nothing")
	}
}

// TestDocsCommandsExist: every command the docs mention — as cmd/<name> or as
// tsvd-<name> — is a directory under cmd/, and DESIGN.md's inventory counts
// them right: a deleted binary cannot survive in prose.
func TestDocsCommandsExist(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join(repoRoot, "cmd"))
	if err != nil {
		t.Fatal(err)
	}
	commands := map[string]bool{"tsvd-go": true} // the project's own name
	for _, e := range entries {
		commands[e.Name()] = e.IsDir()
	}
	refs := 0
	for _, doc := range docFiles(t) {
		text, rel := readDoc(t, doc)
		for _, name := range append(referenced(text, cmdDirRef), referenced(text, cmdNameRef)...) {
			refs++
			if !commands[name] {
				t.Errorf("%s: %s is not a command under cmd/", rel, name)
			}
		}
	}
	if refs == 0 {
		t.Fatal("no command references found; the pattern matches nothing")
	}
	design, _ := readDoc(t, filepath.Join(repoRoot, "DESIGN.md"))
	counts := referenced(design, regexp.MustCompile(`\((\d+) binaries\)`))
	if want := fmt.Sprint(len(entries)); len(counts) != 1 || counts[0] != want {
		t.Errorf("DESIGN.md says (N binaries) with N = %v, cmd/ has %s", counts, want)
	}
}

// TestDocsEndpointsExist: every daemon endpoint the docs mention — as
// "GET /path" or "POST /path", in the linted prose or in the verify skill —
// is one trapstore.NewHandler answers with something other than 404: a
// deleted endpoint cannot survive in prose.
func TestDocsEndpointsExist(t *testing.T) {
	srv := httptest.NewServer(trapstore.NewHandler(trapstore.NewMemory("TSVD", nil),
		trapstore.HandlerOptions{Metrics: metrics.NewRegistry()}))
	defer srv.Close()
	docs := append(docFiles(t), filepath.Join(repoRoot, ".claude", "skills", "verify", "SKILL.md"))
	refs := 0
	for _, doc := range docs {
		text, rel := readDoc(t, doc)
		for _, m := range endpointRef.FindAllStringSubmatch(text, -1) {
			refs++
			req, err := http.NewRequest(m[1], srv.URL+m[2], nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusNotFound {
				t.Errorf("%s: %s %s is not an endpoint of the daemon (404)", rel, m[1], m[2])
			}
		}
	}
	if refs == 0 {
		t.Fatal("no endpoint references found; the pattern matches nothing")
	}
}

// TestGodocComplete: every exported identifier in the public package,
// internal/config, internal/sampler, internal/chaos and internal/triage
// carries a doc comment, including methods on exported types, exported
// struct fields and exported interface methods.
func TestGodocComplete(t *testing.T) {
	for _, dir := range []string{".", "internal/config", "internal/sampler", "internal/chaos", "internal/triage"} {
		n, missing, err := auditGodoc(filepath.Join(repoRoot, dir))
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if n == 0 {
			t.Errorf("%s: no exported identifiers found; the audit saw nothing", dir)
		}
		for _, m := range missing {
			t.Errorf("%s: %s has no doc comment", dir, m)
		}
	}
}

func relTo(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil {
		return rel
	}
	return path
}

var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// markdownLinks extracts inline link targets. Bare URLs and images share the
// same ](...) shape, which is exactly what needs checking.
func markdownLinks(text string) []string {
	var out []string
	for _, m := range linkRe.FindAllStringSubmatch(text, -1) {
		out = append(out, m[1])
	}
	return out
}

// checkLink verifies one link target from file `from`. External schemes are
// skipped: this lint owns intra-repository consistency only.
func checkLink(t *testing.T, from, target string) {
	t.Helper()
	if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
		return
	}
	rel := relTo(repoRoot, from)
	path, frag, _ := strings.Cut(target, "#")
	file := from
	if path != "" {
		file = filepath.Join(filepath.Dir(from), path)
		info, err := os.Stat(file)
		if err != nil {
			t.Errorf("%s: link target %q does not exist", rel, target)
			return
		}
		if info.IsDir() {
			return
		}
	}
	if frag == "" || !strings.HasSuffix(file, ".md") {
		return // anchors into non-markdown files are browser-defined
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Errorf("%s: link target %q unreadable: %v", rel, target, err)
		return
	}
	if !headingAnchors(string(data))[frag] {
		t.Errorf("%s: link %q: no heading in %s has anchor #%s", rel, target, relTo(repoRoot, file), frag)
	}
}

// headingAnchors returns the set of GitHub-style anchor slugs for every
// heading in a markdown document, including -1/-2 suffixes for duplicates.
func headingAnchors(text string) map[string]bool {
	anchors := map[string]bool{}
	counts := map[string]int{}
	inFence := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(line, "#") {
			continue
		}
		title := strings.TrimLeft(line, "#")
		if title == line || !strings.HasPrefix(title, " ") && title != "" {
			continue // shell comments etc. need "# " to be a heading
		}
		slug := slugify(strings.TrimSpace(title))
		if n := counts[slug]; n > 0 {
			anchors[fmt.Sprintf("%s-%d", slug, n)] = true
		} else {
			anchors[slug] = true
		}
		counts[slug]++
	}
	return anchors
}

// slugify mirrors GitHub's heading-to-anchor rule: lowercase, spaces become
// hyphens, and everything that is not a letter, digit, hyphen, or underscore
// is dropped (backticks and punctuation vanish).
func slugify(title string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(title) {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') || r > 127:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// configRef matches a Config.X reference in prose with a left boundary, so
// HTTPConfig.Metrics does not read as Config.Metrics.
var (
	configRef = regexp.MustCompile(`(?:^|[^A-Za-z0-9_.])Config\.([A-Z][A-Za-z0-9_]*)`)
	// cmdDirRef and cmdNameRef match a command by its directory and by its
	// binary name.
	cmdDirRef  = regexp.MustCompile(`\bcmd/([a-z][a-z0-9-]*)`)
	cmdNameRef = regexp.MustCompile(`(?:^|[^A-Za-z0-9_/-])(tsvd-[a-z]+(?:-[a-z]+)*)`)
	// endpointRef matches an HTTP method followed by a path, without the
	// path's query string.
	endpointRef = regexp.MustCompile(`\b(GET|POST) (/[A-Za-z0-9_/.-]*)`)
)

func referenced(text string, re *regexp.Regexp) []string {
	var out []string
	for _, m := range re.FindAllStringSubmatch(text, -1) {
		out = append(out, m[1])
	}
	return out
}

// parseDir parses every non-test Go file of the package in dir.
func parseDir(dir string) (*token.FileSet, []*ast.File, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files = append(files, f)
		}
	}
	return fset, files, nil
}

// typeMembers returns the exported field names of the named struct type
// together with the names of its exported methods.
func typeMembers(dir, typeName string) (map[string]bool, error) {
	_, files, err := parseDir(dir)
	if err != nil {
		return nil, err
	}
	members := map[string]bool{}
	found := false
	for _, f := range files {
		if obj := f.Scope.Lookup(typeName); obj != nil {
			if st, ok := obj.Decl.(*ast.TypeSpec).Type.(*ast.StructType); ok {
				found = true
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						members[name.Name] = name.IsExported()
					}
				}
			}
		}
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok && d.Name.IsExported() && recvName(d) == typeName {
				members[d.Name.Name] = true
			}
		}
	}
	if !found {
		return nil, fmt.Errorf("struct %s not found in %s", typeName, dir)
	}
	return members, nil
}

// pkgDecls is what one package declares, test files included: its
// package-level names, and for each type its fields and methods and the
// types it embeds.
type pkgDecls struct {
	syms    map[string]bool
	members map[string]map[string]bool
	embeds  map[string][]string
}

// has reports whether typ has member, directly or through an embedded type.
func (d *pkgDecls) has(typ, member string) bool {
	if d.members[typ][member] {
		return true
	}
	for _, e := range d.embeds[typ] {
		if d.has(e, member) {
			return true
		}
	}
	return false
}

// declsOf parses every Go file of the package in dir, its tests included.
func declsOf(dir string) (*pkgDecls, error) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, nil, 0)
	if err != nil {
		return nil, err
	}
	d := &pkgDecls{syms: map[string]bool{}, members: map[string]map[string]bool{}, embeds: map[string][]string{}}
	member := func(typ, name string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]bool{}
		}
		d.members[typ][name] = true
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for name, obj := range f.Scope.Objects {
				d.syms[name] = true
				if obj.Kind != ast.Typ {
					continue
				}
				member(name, "")
				st, ok := obj.Decl.(*ast.TypeSpec).Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					for _, n := range field.Names {
						member(name, n.Name)
					}
					if len(field.Names) == 0 {
						e := field.Type
						if star, ok := e.(*ast.StarExpr); ok {
							e = star.X
						}
						if id, ok := e.(*ast.Ident); ok {
							d.embeds[name] = append(d.embeds[name], id.Name)
						}
					}
				}
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
					member(recvName(fn), fn.Name.Name)
				}
			}
		}
	}
	return d, nil
}

// auditGodoc returns the number of exported identifiers inspected in the
// package at dir and the list of those with no doc comment. A group doc on a
// const/var/type block covers its specs; a trailing line comment counts for
// single-line specs and struct fields, matching godoc rendering.
func auditGodoc(dir string) (int, []string, error) {
	_, files, err := parseDir(dir)
	if err != nil {
		return 0, nil, err
	}
	n := 0
	var missing []string
	note := func(documented bool, name string) {
		n++
		if !documented {
			missing = append(missing, name)
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || !receiverExported(d) {
					continue
				}
				note(d.Doc != nil, funcName(d))
			case *ast.GenDecl:
				groupDoc := d.Doc != nil
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						note(groupDoc || s.Doc != nil || s.Comment != nil, "type "+s.Name.Name)
						auditTypeMembers(s, note)
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if !name.IsExported() {
								continue
							}
							note(groupDoc || s.Doc != nil || s.Comment != nil, name.Name)
						}
					}
				}
			}
		}
	}
	sort.Strings(missing)
	return n, missing, nil
}

// auditTypeMembers audits exported struct fields and interface methods of an
// exported type.
func auditTypeMembers(s *ast.TypeSpec, note func(bool, string)) {
	var fields *ast.FieldList
	kind := ""
	switch t := s.Type.(type) {
	case *ast.StructType:
		fields, kind = t.Fields, "field"
	case *ast.InterfaceType:
		fields, kind = t.Methods, "method"
	default:
		return
	}
	for _, field := range fields.List {
		documented := field.Doc != nil || field.Comment != nil
		for _, name := range field.Names {
			if name.IsExported() {
				note(documented, fmt.Sprintf("%s %s.%s", kind, s.Name.Name, name.Name))
			}
		}
	}
}

// receiverExported reports whether a method's receiver type is exported
// (methods on unexported types are not part of the package's godoc surface).
func receiverExported(d *ast.FuncDecl) bool {
	return d.Recv == nil || ast.IsExported(recvName(d)) || recvName(d) == "?"
}

// recvName returns the receiver type name of a method declaration ("" for
// plain functions), unwrapping pointers and generic instantiations.
func recvName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return "?"
		}
	}
}

// funcName renders a function or method name for findings.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil {
		return "func " + d.Name.Name
	}
	return fmt.Sprintf("method %s.%s", recvName(d), d.Name.Name)
}
