package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// tinyParams keeps experiment smoke tests to a few seconds.
func tinyParams() Params {
	p := DefaultParams()
	p.SmallModules = 12
	p.LargeModules = 15
	p.Fig8Modules = 8
	p.Fig8Runs = 3
	return p
}

func output(t *testing.T, fn func(Params, *bytes.Buffer)) string {
	t.Helper()
	var buf bytes.Buffer
	fn(tinyParams(), &buf)
	return buf.String()
}

func TestTable2Output(t *testing.T) {
	got := output(t, func(p Params, w *bytes.Buffer) { Table2(p, w) })
	for _, want := range []string{
		"Table 2", "DataCollider", "DynamicRandom", "TSVDHB", "TSVD",
		"overhead", "#delay", "planted bugs",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("Table2 output missing %q:\n%s", want, got)
		}
	}
	// Four technique rows.
	if n := strings.Count(got, "%"); n < 4 {
		t.Fatalf("expected at least 4 overhead cells:\n%s", got)
	}
}

// TestTable2SeedsOutput: one block of four rows a seed, then a range line a
// technique and paired differences for the three techniques beside TSVD.
func TestTable2SeedsOutput(t *testing.T) {
	p := tinyParams()
	p.SmallModules = 6
	var buf bytes.Buffer
	Table2Seeds(p, []int64{1, 2}, &buf)
	got := buf.String()
	for _, want := range []string{"Table 2 over 2 suite seeds", "Per technique", "Paired differences", "lower on"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "%"); n != 8+4 {
		t.Fatalf("want 8 seed rows and 4 range lines with an overhead:\n%s", got)
	}
	if n := strings.Count(got, "sum "); n != 3 {
		t.Fatalf("want paired bug differences for 3 techniques:\n%s", got)
	}
}

func TestTable1Output(t *testing.T) {
	got := output(t, func(p Params, w *bytes.Buffer) { Table1(p, w) })
	for _, want := range []string{
		"Table 1", "unique bugs", "read-write", "same-location",
		"async", "Dictionary", "List", "stack depth",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("Table1 output missing %q:\n%s", want, got)
		}
	}
}

func TestTable3Output(t *testing.T) {
	got := output(t, func(p Params, w *bytes.Buffer) { Table3(p, w) })
	for _, want := range []string{
		"Table 3", "No HB-inference", "No windowing", "No phase detection",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("Table3 output missing %q:\n%s", want, got)
		}
	}
}

func TestFigure8Output(t *testing.T) {
	got := output(t, func(p Params, w *bytes.Buffer) { Figure8(p, w) })
	if !strings.Contains(got, "Figure 8") {
		t.Fatalf("missing header:\n%s", got)
	}
	if !strings.Contains(got, "false negatives") {
		t.Fatalf("missing §5.3 categorization:\n%s", got)
	}
	// One line per run.
	if lines := strings.Count(got, "\n"); lines < tinyParams().Fig8Runs {
		t.Fatalf("expected >= %d run rows:\n%s", tinyParams().Fig8Runs, got)
	}
}

func TestFigure9Sweeps(t *testing.T) {
	cases := []struct {
		name string
		fn   func(Params, *bytes.Buffer)
		want string
	}{
		{"9b", func(p Params, w *bytes.Buffer) { Figure9b(p, w) }, "N_nm"},
		{"9d", func(p Params, w *bytes.Buffer) { Figure9d(p, w) }, "δ_hb"},
		{"9g", func(p Params, w *bytes.Buffer) { Figure9g(p, w) }, "decay"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := output(t, tc.fn)
			if !strings.Contains(got, tc.want) {
				t.Fatalf("Figure %s output missing %q:\n%s", tc.name, tc.want, got)
			}
		})
	}
}

func TestResourceUsageOutput(t *testing.T) {
	got := output(t, func(p Params, w *bytes.Buffer) { ResourceUsage(p, w) })
	for _, want := range []string{"baseline", "TSVD", "allocation"} {
		if !strings.Contains(got, want) {
			t.Fatalf("ResourceUsage output missing %q:\n%s", want, got)
		}
	}
}

func TestAsyncInliningOutput(t *testing.T) {
	got := output(t, func(p Params, w *bytes.Buffer) { AsyncInlining(p, w) })
	if !strings.Contains(got, "force-async") || !strings.Contains(got, "inlining") {
		t.Fatalf("AsyncInlining output malformed:\n%s", got)
	}
}

func TestParallelismForHostPositive(t *testing.T) {
	if parallelismForHost() < 1 {
		t.Fatal("parallelismForHost < 1")
	}
}
