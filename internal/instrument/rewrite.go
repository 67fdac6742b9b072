package instrument

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
)

// Rewriter instruments Go source files according to DefaultMappings.
type Rewriter struct {
	// detectorExpr is inserted as every rewritten constructor's detector
	// argument, e.g. "tsvd.Default()".
	detectorExpr string
	byType       map[string]*ClassMapping // raw type name → mapping
	byCtor       map[string]*ClassMapping // raw constructor name → mapping
	byInst       map[string]*ClassMapping // instrumented type name → mapping
	fileSet      *token.FileSet
}

// NewRewriter builds a Rewriter that passes detectorExpr to every rewritten
// constructor.
func NewRewriter(detectorExpr string) *Rewriter {
	r := &Rewriter{
		detectorExpr: detectorExpr,
		byType:       map[string]*ClassMapping{},
		byCtor:       map[string]*ClassMapping{},
		byInst:       map[string]*ClassMapping{},
		fileSet:      token.NewFileSet(),
	}
	mappings := DefaultMappings()
	for i := range mappings {
		m := &mappings[i]
		r.byType[m.RawType] = m
		r.byCtor[m.RawConstructor] = m
		r.byInst[m.InstType] = m
	}
	return r
}

// Rewrite instruments one file's source. It returns the rewritten source,
// the instrumented sites, and whether anything changed. Files that do not
// import the raw package come back unchanged.
func (r *Rewriter) Rewrite(filename string, src []byte) ([]byte, []Site, bool, error) {
	file, err := parser.ParseFile(r.fileSet, filename, src, parser.ParseComments)
	if err != nil {
		return nil, nil, false, fmt.Errorf("instrument: parse %s: %w", filename, err)
	}
	rawName, ok := importName(file, rawImport)
	if !ok {
		return src, nil, false, nil
	}

	st := &fileState{
		rw:       r,
		rawName:  rawName,
		varClass: map[string]*ClassMapping{},
		filename: filename,
	}
	// Pass 1: learn which identifiers hold which container class, from
	// explicit types and from constructor assignments.
	st.collectTypes(file)
	if st.err != nil {
		return nil, nil, false, st.err
	}
	// Pass 2: rewrite types, constructors and method calls.
	ast.Inspect(file, st.rewriteNode)
	if !st.changed {
		return src, nil, false, nil
	}

	r.rewriteImports(file, rawName, st.needDetector)

	var buf bytes.Buffer
	if err := format.Node(&buf, r.fileSet, file); err != nil {
		return nil, nil, false, fmt.Errorf("instrument: print %s: %w", filename, err)
	}
	return buf.Bytes(), st.sites, true, nil
}

// importName returns the local name under which path is imported.
func importName(file *ast.File, path string) (string, bool) {
	for _, imp := range file.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name, true
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			return p[i+1:], true
		}
		return p, true
	}
	return "", false
}

// fileState carries one file's rewrite context.
type fileState struct {
	rw       *Rewriter
	rawName  string
	filename string
	// varClass maps identifier (variable, parameter or struct field
	// name) to the container class it holds. The tracker is file-scoped
	// and name-based: same-named identifiers of different classes in one
	// file are unsupported (the instrumenter reports an error).
	varClass     map[string]*ClassMapping
	sites        []Site
	changed      bool
	needDetector bool
	err          error
}

// rawSelector returns the mapping when expr is rawName.Sel with Sel a known
// raw type (unwrapping pointers and generic instantiations).
func (st *fileState) rawSelector(expr ast.Expr) (*ClassMapping, bool) {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.SelectorExpr:
			if id, ok := e.X.(*ast.Ident); ok && id.Name == st.rawName {
				m, ok := st.rw.byType[e.Sel.Name]
				return m, ok
			}
			return nil, false
		default:
			return nil, false
		}
	}
}

// collectTypes learns identifier classes from declarations.
func (st *fileState) collectTypes(file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.Field: // struct fields, params, results
			if m, ok := st.rawSelector(node.Type); ok {
				for _, name := range node.Names {
					st.learn(name.Name, m)
				}
			}
		case *ast.ValueSpec: // var declarations
			if node.Type != nil {
				if m, ok := st.rawSelector(node.Type); ok {
					for _, name := range node.Names {
						st.learn(name.Name, m)
					}
				}
			}
			for i, v := range node.Values {
				if m, ok := st.constructorOf(v); ok && i < len(node.Names) {
					st.learn(node.Names[i].Name, m)
				}
			}
		case *ast.AssignStmt: // x := rawcol.NewMap[...]()
			for i, rhs := range node.Rhs {
				m, ok := st.constructorOf(rhs)
				if !ok || i >= len(node.Lhs) {
					continue
				}
				switch lhs := node.Lhs[i].(type) {
				case *ast.Ident:
					st.learn(lhs.Name, m)
				case *ast.SelectorExpr: // s.field = rawcol.New...
					st.learn(lhs.Sel.Name, m)
				}
			}
		}
		return true
	})
}

// constructorOf returns the mapping when expr is a call of a raw
// constructor.
func (st *fileState) constructorOf(expr ast.Expr) (*ClassMapping, bool) {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	fun := call.Fun
	for {
		switch f := fun.(type) {
		case *ast.IndexExpr:
			fun = f.X
		case *ast.IndexListExpr:
			fun = f.X
		case *ast.SelectorExpr:
			if id, ok := f.X.(*ast.Ident); ok && id.Name == st.rawName {
				m, ok := st.rw.byCtor[f.Sel.Name]
				return m, ok
			}
			return nil, false
		default:
			return nil, false
		}
	}
}

func (st *fileState) learn(name string, m *ClassMapping) {
	if prev, ok := st.varClass[name]; ok && prev != m && st.err == nil {
		st.err = fmt.Errorf("instrument: %s: identifier %q holds both %s and %s; rename one",
			st.filename, name, prev.RawType, m.RawType)
	}
	st.varClass[name] = m
}

// rewriteNode performs the actual rewrites while walking.
func (st *fileState) rewriteNode(n ast.Node) bool {
	switch node := n.(type) {
	case *ast.SelectorExpr:
		// Type references rawcol.X → collections.Y (constructor calls and
		// method calls are rewritten at the CallExpr level before their
		// children are visited, so a raw selector surviving to this point
		// is a type reference).
		if id, ok := node.X.(*ast.Ident); ok && id.Name == st.rawName {
			if m, ok := st.rw.byType[node.Sel.Name]; ok {
				id.Name = instPkgName
				node.Sel.Name = m.InstType
				st.changed = true
			}
		}
	case *ast.CallExpr:
		st.rewriteCall(node)
	}
	return true
}

func (st *fileState) rewriteCall(call *ast.CallExpr) {
	// Constructor: rawcol.NewX[...](args) →
	// collections.NewY[...](detectorExpr, args...).
	if m, ok := st.constructorOf(call); ok {
		renameSelector(call.Fun, st.rawName, instPkgName,
			m.RawConstructor, m.InstConstructor)
		// The detector expression is injected as an opaque identifier;
		// the printer emits the Name verbatim, so "tsvd.Default()" comes
		// out as written. Parsing it would gain nothing — it is never
		// inspected, only printed.
		det := &ast.Ident{Name: st.rw.detectorExpr}
		call.Args = append([]ast.Expr{det}, call.Args...)
		st.needDetector = true
		st.changed = true
		st.addSite(call.Pos(), m, m.InstConstructor, true)
		return
	}
	// Method call on a tracked identifier: x.Method(...) or s.field.M(...).
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	recvName, ok := receiverName(sel.X)
	if !ok {
		return
	}
	m, ok := st.varClass[recvName]
	if !ok {
		return
	}
	newName := sel.Sel.Name
	if mapped, ok := m.Methods[sel.Sel.Name]; ok {
		newName = mapped
	}
	sel.Sel.Name = newName
	st.changed = true
	st.addSite(call.Pos(), m, newName, false)
}

// receiverName extracts the identifier a method is invoked on: `x` or the
// final field of `a.b.x`.
func receiverName(expr ast.Expr) (string, bool) {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		return e.Sel.Name, true
	default:
		return "", false
	}
}

func renameSelector(fun ast.Expr, oldPkg, newPkg, oldName, newName string) {
	for {
		switch f := fun.(type) {
		case *ast.IndexExpr:
			fun = f.X
		case *ast.IndexListExpr:
			fun = f.X
		case *ast.SelectorExpr:
			if id, ok := f.X.(*ast.Ident); ok && id.Name == oldPkg && f.Sel.Name == oldName {
				id.Name = newPkg
				f.Sel.Name = newName
			}
			return
		default:
			return
		}
	}
}

func (st *fileState) addSite(pos token.Pos, m *ClassMapping, method string, ctor bool) {
	p := st.rw.fileSet.Position(pos)
	st.sites = append(st.sites, Site{
		File:        st.filename,
		Line:        p.Line,
		Class:       m.InstType,
		Method:      method,
		Write:       m.Writes[method],
		Constructor: ctor,
	})
}

// rewriteImports swaps the raw import for the instrumented one and adds the
// detector-provider import when constructors were rewritten.
func (r *Rewriter) rewriteImports(file *ast.File, rawName string, needDetector bool) {
	for _, decl := range file.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.IMPORT {
			continue
		}
		for _, spec := range gen.Specs {
			imp := spec.(*ast.ImportSpec)
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil || p != rawImport {
				continue
			}
			imp.Path.Value = strconv.Quote(instImport)
			imp.Name = nil // instImport's own name is instPkgName
			if needDetector {
				gen.Specs = append(gen.Specs, &ast.ImportSpec{
					Name: &ast.Ident{Name: detectorName},
					Path: &ast.BasicLit{
						Kind:  token.STRING,
						Value: strconv.Quote(detectorImport),
					},
				})
			}
			return
		}
	}
}

// Err surfaces tracking conflicts discovered during Rewrite.
func (st *fileState) Err() error { return st.err }
