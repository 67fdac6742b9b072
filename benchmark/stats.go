package main

import (
	"fmt"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tails are the percentiles a timing may be reported at, highest first,
// each with the share of samples that lies beyond it (one in beyond).
var tails = []struct {
	q      float64
	beyond int
}{{0.9999, 10000}, {0.999, 1000}, {0.99, 100}, {0.95, 20}, {0.9, 10}, {0.75, 4}}

// tailQuantile picks the highest percentile that still has at least ten
// samples beyond it; ok is false when even the lowest candidate has not
// (fewer than 40 samples), in which case only min and max mean anything.
func tailQuantile(n int) (q float64, ok bool) {
	for _, t := range tails {
		if n/t.beyond >= 10 {
			return t.q, true
		}
	}
	return 0, false
}

// timing summarises a latency sample the way every timing in this program
// is printed: median, the highest supported tail percentile, and the count.
type timing struct {
	n        int
	p50      float64
	tailQ    float64 // 0 when the sample supports no tail percentile
	tail     float64
	min, max float64
}

func summarize(xs []float64) timing {
	if len(xs) == 0 {
		return timing{}
	}
	s := sortedCopy(xs)
	t := timing{n: len(s), p50: quantile(s, 0.5), min: s[0], max: s[len(s)-1]}
	if q, ok := tailQuantile(len(s)); ok {
		t.tailQ, t.tail = q, quantile(s, q)
	}
	return t
}

func (t timing) String() string {
	if t.n == 0 {
		return "no samples"
	}
	if t.tailQ == 0 {
		return fmt.Sprintf("p50=%.4g min=%.4g max=%.4g n=%d", t.p50, t.min, t.max, t.n)
	}
	return fmt.Sprintf("p50=%.4g p%.6g=%.4g n=%d", t.p50, t.tailQ*100, t.tail, t.n)
}

// percentile returns the q-quantile of xs, or 0 when the sample does not
// have ten values beyond it — a tail nobody can trust is not reported.
func percentile(xs []float64, q float64) float64 {
	if best, ok := tailQuantile(len(xs)); !ok || q > best {
		return 0
	}
	return quantile(sortedCopy(xs), q)
}
