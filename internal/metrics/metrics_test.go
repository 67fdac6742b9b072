package metrics

import (
	"strings"
	"sync"
	"testing"
)

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return sb.String()
}

func wantLine(t *testing.T, out, line string) {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if l == line {
			return
		}
	}
	t.Fatalf("exposition missing line %q:\n%s", line, out)
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "operations", Label{"op", "fetch"})
	depth := int64(7)
	r.GaugeFunc("test_depth", "queue depth", func() float64 { return float64(depth) })
	c.Add(41)
	c.Inc()
	depth -= 2

	out := scrape(t, r)
	wantLine(t, out, "# HELP test_ops_total operations")
	wantLine(t, out, "# TYPE test_ops_total counter")
	wantLine(t, out, `test_ops_total{op="fetch"} 42`)
	wantLine(t, out, "# TYPE test_depth gauge")
	wantLine(t, out, "test_depth 5")
	if c.Value() != 42 {
		t.Fatalf("Value: counter %d", c.Value())
	}
}

func TestFuncSeriesReadAtScrapeTime(t *testing.T) {
	r := NewRegistry()
	v := int64(0)
	r.CounterFunc("test_live_total", "live view", func() float64 { return float64(v) })
	v = 10
	wantLine(t, scrape(t, r), "test_live_total 10")
	v = 11
	wantLine(t, scrape(t, r), "test_live_total 11")
}

func TestSharedFamilyGroupsSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_ops_total", "ops", Label{"op", "a"}).Add(1)
	r.Counter("test_ops_total", "ops", Label{"op", "b"}).Add(2)
	out := scrape(t, r)
	if n := strings.Count(out, "# TYPE test_ops_total counter"); n != 1 {
		t.Fatalf("family emitted %d TYPE lines, want 1:\n%s", n, out)
	}
	wantLine(t, out, `test_ops_total{op="a"} 1`)
	wantLine(t, out, `test_ops_total{op="b"} 2`)
}

func TestHistogramBucketsAreCumulative(t *testing.T) {
	r := NewRegistry()
	// Bounds in "nanoseconds", exposed as seconds.
	h := r.Histogram("test_lat_seconds", "latency", 1e-9, []int64{1000, 2000, 4000})
	h.Observe(500)  // ≤1000
	h.Observe(1000) // ≤1000 (upper bound inclusive)
	h.Observe(1500) // ≤2000
	h.Observe(9999) // +Inf

	out := scrape(t, r)
	wantLine(t, out, `test_lat_seconds_bucket{le="1e-06"} 2`)
	wantLine(t, out, `test_lat_seconds_bucket{le="2e-06"} 3`)
	wantLine(t, out, `test_lat_seconds_bucket{le="4e-06"} 3`)
	wantLine(t, out, `test_lat_seconds_bucket{le="+Inf"} 4`)
	wantLine(t, out, "test_lat_seconds_count 4")
	if h.Count() != 4 || h.Sum() != 500+1000+1500+9999 {
		t.Fatalf("count %d sum %d", h.Count(), h.Sum())
	}
}

func TestHistogramWithLabelsAppendsLe(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_lat_seconds", "latency", 1, []int64{5}, Label{"op", "x"})
	h.Observe(3)
	out := scrape(t, r)
	wantLine(t, out, `test_lat_seconds_bucket{op="x",le="5"} 1`)
	wantLine(t, out, `test_lat_seconds_sum{op="x"} 3`)
	wantLine(t, out, `test_lat_seconds_count{op="x"} 1`)
}

func TestLabelEscapingAndOrdering(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_total", "t", Label{"z", "a"}, Label{"a", `q"u\o` + "\n"}).Inc()
	wantLine(t, scrape(t, r), `test_total{a="q\"u\\o\n",z="a"} 1`)
}

func TestExpBounds(t *testing.T) {
	got := ExpBounds(1000, 2, 4)
	want := []int64{1000, 2000, 4000, 8000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBounds = %v, want %v", got, want)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "x")
	h := r.Histogram("x_seconds", "x", 1, []int64{1})
	r.CounterFunc("y_total", "y", func() float64 { return 1 })
	r.GaugeFunc("y", "y", func() float64 { return 1 })
	c.Inc()
	c.Add(5)
	h.Observe(9)
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read zero")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry wrote %q, err %v", sb.String(), err)
	}
}

func TestHotPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "t")
	h := r.Histogram("test_seconds", "t", 1e-9, ExpBounds(1000, 2, 20))
	if n := testing.AllocsPerRun(100, func() { c.Inc(); h.Observe(123456) }); n != 0 {
		t.Fatalf("hot path allocated %v times per run", n)
	}
}

func TestConcurrentObserveIsExact(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "t")
	h := r.Histogram("test_seconds", "t", 1, []int64{10, 100})
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(int64(i % 200))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count %d, want %d", h.Count(), workers*per)
	}
}
