package instrument

import "testing"

// FuzzRewrite: the instrumenter must never panic on arbitrary input — it
// either rewrites, passes through, or returns an error. Any output it does
// produce must itself re-parse.
func FuzzRewrite(f *testing.F) {
	f.Add(`package p

import "repro/internal/rawcol"

func f() { m := rawcol.NewMap[int, int](); m.Add(1, 1) }
`)
	f.Add("package p\nfunc g() {}\n")
	f.Add("not go at all")
	f.Add(`package p

import rc "repro/internal/rawcol"

type s struct{ a *rc.Array[string] }
`)
	f.Fuzz(func(t *testing.T, src string) {
		rw := NewRewriter(DefaultDetectorExpr)
		out, _, changed, err := rw.Rewrite("fuzz.go", []byte(src))
		if err != nil || !changed {
			return
		}
		// Rewritten output must be parseable Go.
		if _, _, _, err := rw.Rewrite("fuzz2.go", out); err != nil {
			t.Fatalf("rewritten output does not parse: %v\ninput:\n%s\noutput:\n%s",
				err, src, out)
		}
	})
}
