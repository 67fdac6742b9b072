package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/sampler"
	"repro/internal/trace"
	"repro/internal/trapstore"
)

// WriteTrace writes out's event trace into dir, the one trace directory
// format: events.jsonl (one event per line, every module run in turn),
// metrics.json (the per-location aggregate, also returned) and summary.json
// (the producer's accounting, which trace.CheckDir checks the events
// against). modules is the suite's module count. store is the run's trap
// store and storeTracer the tracer it emitted into, either of them nil: the
// store's events join the trace as pseudo-module "trapstore", and its totals
// join the summary's expected counts.
func WriteTrace(dir string, modules int, out *Outcome, store trapstore.TrapStore,
	storeTracer *trace.Tracer) (*trace.Metrics, error) {

	traces, totals := out.Traces, out.TraceTotals
	if storeTracer != nil {
		tot := storeTracer.Totals()
		// A full slice expression, so the append leaves out.Traces alone.
		traces = append(traces[:len(traces):len(traces)], trace.ModuleTrace{
			Module: "trapstore", Events: storeTracer.Drain(),
			Emitted: tot.Emitted, Dropped: tot.Dropped,
		})
		totals.Emitted += tot.Emitted
		totals.Dropped += tot.Dropped
	}
	expected := out.Stats.TraceExpectations()
	var st trace.StoreTotals
	if store != nil {
		st = store.Totals()
	}
	st.Expect(expected)

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace dir: %w", err)
	}
	var drained int64
	err := writeFile(filepath.Join(dir, "events.jsonl"), func(w io.Writer) error {
		for _, mt := range traces {
			if err := trace.WriteJSONL(w, mt, out.Sites); err != nil {
				return err
			}
			drained += int64(len(mt.Events))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	metrics := trace.Aggregate(traces)
	if err := writeFile(filepath.Join(dir, "metrics.json"), metrics.WriteJSON); err != nil {
		return nil, err
	}
	sum := trace.Summary{
		Version:  trace.SchemaVersion,
		Tool:     out.Algo.String(),
		Modules:  modules,
		Runs:     len(out.NewBugsByRun),
		Emitted:  totals.Emitted,
		Dropped:  totals.Dropped,
		Drained:  drained,
		ByKind:   trace.CountByKind(traces),
		Expected: expected,
		Overhead: traceOverhead(out.Overhead),
		Sites:    trace.SiteTable(out.Sites),
	}
	return metrics, writeFile(filepath.Join(dir, "summary.json"), sum.WriteSummary)
}

// writeFile creates path and fills it with write, closing it either way.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceOverhead puts the sampler's account in the trace summary's form; nil
// when the suite did not run in sampled mode.
func traceOverhead(s sampler.Snapshot) *trace.OverheadTotals {
	if s.Spent == 0 && s.Ticks == 0 {
		return nil
	}
	t := &trace.OverheadTotals{
		Probability: s.Probability,
		Ratio:       s.Last.Observed,
		FloorRatio:  s.Last.Floor,
		Seconds:     map[string]float64{},
	}
	for l, d := range s.Layers {
		t.Seconds[sampler.Layer(l).String()] = d.Seconds()
	}
	return t
}
