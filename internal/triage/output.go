package triage

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/sites"
)

// JSONCluster is the wire form of one BugCluster in bugs.json. All identity
// fields are cross-process strings.
type JSONCluster struct {
	// ID is the stable signature digest (Signature.ID).
	ID string `json:"id"`
	// SiteA is the lesser side of the normalized pair.
	SiteA sites.Tuple `json:"site_a"`
	// SiteB is the greater side.
	SiteB sites.Tuple `json:"site_b"`
	// Firings is the raw violation count folded into the cluster.
	Firings int64 `json:"firings"`
	// Rank is the reproducibility measure.
	Rank Rank `json:"rank"`
	// FirstSeen is the earliest firing's provenance; omitted when the
	// cluster never fired (trap-snapshot view).
	FirstSeen *Seen `json:"first_seen,omitempty"`
	// LastSeen is the latest firing's provenance, same omission rule.
	LastSeen *Seen `json:"last_seen,omitempty"`
	// Explanation is the carved trace slice, when any unit provided one.
	Explanation *Explanation `json:"explanation,omitempty"`
}

// JSONClusterOf converts one ranked cluster to its wire form.
func JSONClusterOf(c BugCluster) JSONCluster {
	jc := JSONCluster{
		ID:          c.ID,
		SiteA:       c.Sig.A,
		SiteB:       c.Sig.B,
		Firings:     c.Firings,
		Rank:        c.Rank,
		Explanation: c.Explanation,
	}
	if c.Firings > 0 {
		first, last := c.First, c.Last
		jc.FirstSeen, jc.LastSeen = &first, &last
	}
	return jc
}

// jsonReport is the bugs.json envelope.
type jsonReport struct {
	Tool     string        `json:"tool"`
	Clusters int           `json:"clusters"`
	Firings  int64         `json:"firings_folded"`
	Units    int64         `json:"units,omitempty"`
	Bugs     []JSONCluster `json:"bugs"`
}

// WriteJSON writes the ranked clusters as the bugs.json document.
func WriteJSON(w io.Writer, tool string, units int64, clusters []BugCluster) error {
	rep := jsonReport{Tool: tool, Clusters: len(clusters), Units: units,
		Bugs: make([]JSONCluster, 0, len(clusters))}
	for _, c := range clusters {
		rep.Firings += c.Firings
		rep.Bugs = append(rep.Bugs, JSONClusterOf(c))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteMarkdown writes the human-readable bugs.md: one section per cluster,
// ranked most-reproducible first, each naming the access pair, the rank,
// the provenance span, and the explanation slice.
func WriteMarkdown(w io.Writer, tool string, units int64, clusters []BugCluster) error {
	var total int64
	for _, c := range clusters {
		total += c.Firings
	}
	fmt.Fprintf(w, "# %s bug triage\n\n", tool)
	fmt.Fprintf(w, "%d cluster(s) from %d firing(s) across %d unit(s).\n\n",
		len(clusters), total, units)
	for i, c := range clusters {
		fmt.Fprintf(w, "## %d. bug %s\n\n", i+1, c.ID)
		fmt.Fprintf(w, "- pair: %s ↔ %s\n", c.Sig.A, c.Sig.B)
		fmt.Fprintf(w, "- firings: %d\n", c.Firings)
		if c.Rank.Opportunities > 0 {
			fmt.Fprintf(w, "- reproducibility: %d/%d units (hit rate %.2f, 95%% CI [%.2f, %.2f])\n",
				c.Rank.FiringUnits, c.Rank.Opportunities, c.Rank.HitRate, c.Rank.Low, c.Rank.High)
		} else if c.Firings > 0 {
			fmt.Fprintf(w, "- reproducibility: unknown (no trace-visible opportunities)\n")
		}
		if c.Firings > 0 {
			fmt.Fprintf(w, "- first seen: %s\n", seenString(c.First))
			fmt.Fprintf(w, "- last seen: %s\n", seenString(c.Last))
		}
		if ex := c.Explanation; ex != nil {
			fmt.Fprintf(w, "\n%s\n\nExplanation slice (%s run %d):\n\n", ex.Verdict, ex.Module, ex.Run)
			for _, e := range ex.Events {
				loc := e.LocA
				if e.LocB != "" {
					loc += " / " + e.LocB
				}
				fmt.Fprintf(w, "- t=%dµs %s (%s) — %s\n", e.TUS, e.Kind, loc, e.Note)
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// seenString renders one provenance endpoint for bugs.md.
func seenString(s Seen) string {
	out := fmt.Sprintf("t=%dµs", s.AtUS)
	if s.Shard > 0 {
		out += fmt.Sprintf(" shard %d", s.Shard)
	}
	if s.Round > 0 {
		out += fmt.Sprintf(" round %d", s.Round)
	}
	if s.Seed != 0 {
		out += fmt.Sprintf(" seed %d", s.Seed)
	}
	if s.Mode != "" {
		out += " mode " + s.Mode
	}
	if s.Source != "" {
		out += " source " + s.Source
	}
	return out
}

// WriteDir writes bugs.json and bugs.md for the ranked clusters into dir,
// creating it if needed.
func WriteDir(dir, tool string, units int64, clusters []BugCluster) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	jf, err := os.Create(filepath.Join(dir, "bugs.json"))
	if err != nil {
		return err
	}
	if err := WriteJSON(jf, tool, units, clusters); err != nil {
		jf.Close()
		return err
	}
	if err := jf.Close(); err != nil {
		return err
	}
	mf, err := os.Create(filepath.Join(dir, "bugs.md"))
	if err != nil {
		return err
	}
	if err := WriteMarkdown(mf, tool, units, clusters); err != nil {
		mf.Close()
		return err
	}
	return mf.Close()
}
