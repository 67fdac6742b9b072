package instrument

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Result summarizes an instrumentation run over a directory tree.
type Result struct {
	// FilesChanged lists files that were rewritten.
	FilesChanged []string
	// Sites lists every instrumented call site.
	Sites []Site
}

// CallSites returns the non-constructor sites (the actual TSVD points).
func (r *Result) CallSites() []Site {
	out := make([]Site, 0, len(r.Sites))
	for _, s := range r.Sites {
		if !s.Constructor {
			out = append(out, s)
		}
	}
	return out
}

// RewriteDir instruments every .go file under dir (skipping _test.go files
// and vendored/testdata trees). With write=false it is a dry run: files are
// analyzed but not modified. detectorExpr is NewRewriter's.
func RewriteDir(dir, detectorExpr string, write bool) (*Result, error) {
	rw := NewRewriter(detectorExpr)
	res := &Result{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "vendor" || name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("instrument: read %s: %w", path, err)
		}
		out, sites, changed, err := rw.Rewrite(path, src)
		if err != nil {
			return err
		}
		if !changed {
			return nil
		}
		res.FilesChanged = append(res.FilesChanged, path)
		res.Sites = append(res.Sites, sites...)
		if write {
			if err := os.WriteFile(path, out, 0o644); err != nil {
				return fmt.Errorf("instrument: write %s: %w", path, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
