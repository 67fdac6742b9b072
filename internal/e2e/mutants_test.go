package e2e

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// mutant is one row of testdata/mutants.json: a planted bug, given as the
// exact text it replaces in one file, and the test that must catch it.
type mutant struct {
	Name string `json:"name"`
	// File is the mutated file, relative to the repository root; Old must
	// occur in it exactly once, and New replaces it.
	File string `json:"file"`
	Old  string `json:"old"`
	New  string `json:"new"`
	// Pkg is the package whose test must fail, as `go test` takes it from
	// the root; Test names that test, or Test/subtest.
	Pkg  string `json:"pkg"`
	Test string `json:"test"`
	Why  string `json:"why"`
}

// TestMutantsAreKilled applies each row of testdata/mutants.json and
// requires its named test to fail. A mutant is applied with `go test
// -overlay`, through GOFLAGS so that the binaries TestMain builds for an
// internal/e2e row carry it too; the tree is never copied or written. A row
// fails when its old text does not occur exactly once, when the mutant does
// not compile, or when the named test passes.
func TestMutantsAreKilled(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go test once per mutant; skipped under -short")
	}
	if raceEnabled {
		t.Skip("the mutants' go test children never run race-enabled; skipped under -race")
	}
	data, err := os.ReadFile("testdata/mutants.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []mutant
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("testdata/mutants.json: %v", err)
	}
	root, err := filepath.Abs(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range rows {
		if seen[m.Name] || m.Name == "" || m.File == "" || m.Old == "" || m.Pkg == "" || m.Test == "" || m.Why == "" {
			t.Fatalf("row %+v: name must be unique and every field but new non-empty", m)
		}
		seen[m.Name] = true
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			if err := killMutant(root, t.TempDir(), m); err != nil {
				t.Errorf("%s (%s): %v", m.Name, m.Why, err)
			}
		})
	}
}

// killMutant writes m's mutated file and an overlay naming it into dir, runs
// m's test against it, and returns nil when that test failed.
func killMutant(root, dir string, m mutant) error {
	src, err := os.ReadFile(filepath.Join(root, m.File))
	if err != nil {
		return err
	}
	if n := strings.Count(string(src), m.Old); n != 1 {
		return fmt.Errorf("old text occurs %d times in %s, want exactly once", n, m.File)
	}
	mutated := filepath.Join(dir, filepath.Base(m.File))
	if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.Old, m.New, 1)), 0o644); err != nil {
		return err
	}
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {filepath.Join(root, m.File): mutated}})
	if err != nil {
		return err
	}
	overlayPath := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlayPath, overlay, 0o644); err != nil {
		return err
	}
	run := "^" + strings.ReplaceAll(m.Test, "/", "$/^") + "$"
	cmd := exec.Command("go", "test", "-count=1", "-run", run, m.Pkg)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOFLAGS="+strings.TrimSpace(os.Getenv("GOFLAGS")+" -overlay="+overlayPath))
	out, err := cmd.CombinedOutput()
	switch {
	case strings.Contains(string(out), "--- FAIL: "+m.Test+" ("):
		return nil
	case err == nil:
		return fmt.Errorf("survived: %s passes with the mutant, or names no test", m.Test)
	default:
		return fmt.Errorf("%s did not fail its test (the mutant must compile): %v\n%s", m.Test, err, tail(out, 20))
	}
}

// tail returns the last n lines of out.
func tail(out []byte, n int) string {
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	return strings.Join(lines[max(0, len(lines)-n):], "\n")
}
