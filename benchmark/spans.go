package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval, recorded by this program around its calls
// into the system (spans inside the system are a later change). Times are
// nanoseconds since the recorder was created.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Run      int64  `json:"run"` // the run's seed
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Self     int64  `json:"self_ns"` // filled by selfTimes
}

// spanRecorder keeps spans in memory until the benchmark ends. A nil
// recorder records nothing, so untraced runs pay one nil check per site.
type spanRecorder struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string // set by main before each workload starts
	run      int64
	spans    []span
}

func newSpanRecorder(run int64) *spanRecorder {
	return &spanRecorder{epoch: time.Now(), run: run}
}

// begin opens a span under parent and returns its id (0 on a nil recorder).
func (r *spanRecorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name,
		Workload: r.workload, Run: r.run, Start: now, End: now})
	return id
}

func (r *spanRecorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// selfTimes fills every span's Self: its duration minus the part of its
// interval that its children cover. Children may overlap each other (two
// workers' batches under one arm) and may stick out of the parent (a
// callback finishing late); only the union of their intervals, clipped to
// the parent, is subtracted.
func selfTimes(spans []span) {
	children := map[int][]int{}
	for i, s := range spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	for i := range spans {
		p := &spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), p.Start
		for _, k := range kids {
			s, e := max(spans[k].Start, reach), min(spans[k].End, p.End)
			if e > s {
				covered += e - s
				reach = e
			}
		}
		p.Self = (p.End - p.Start) - covered
	}
}

// write stores the spans as JSON lines under dir and returns the path.
func (r *spanRecorder) write(dir string) (string, error) {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	selfTimes(spans)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
