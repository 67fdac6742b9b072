package e2e

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// TestHotPathHelpersInline: the object lookup every analysing OnCall starts
// from — the thread's one-object cache, then the registry's home slot —
// inlines into TSVD's and TSVDHB's OnCall. It sits exactly at the inliner's
// budget, so a line added to it, or to intmap.GetFast inside it, turns it
// into an out-of-line call on every call without failing anything else.
func TestHotPathHelpersInline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the compiler; skipped under -short")
	}
	root, err := filepath.Abs(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "build", "-gcflags=repro/internal/core=-m", "./internal/core")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, tail(out, 20))
	}
	for _, file := range []string{"tsvd.go", "tsvdhb.go"} {
		if !regexp.MustCompile(`internal/core/` + file + `:\d+:\d+: inlining call to \(\*runtime\)\.objStateFast\n`).Match(out) {
			t.Errorf("objStateFast is not inlined into %s's OnCall", file)
		}
	}
}
