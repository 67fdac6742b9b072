package instrument

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/sites"
)

// EmitSiteTable writes the instrumentation run's call sites as a JSON site
// table: one array of sites.Tuple rows — the same wire form as a trap file's
// table, so identity is the stable location key plus the API tuple, never a
// process-local id — in tuple order, constructors excluded (they are not TSVD
// points). The location key is "file:line" — the same shape ids.CallerOp
// interns at runtime, so rows a consumer interns up front (tsvd.RegisterSite,
// or trapfile.LoadSeed via a trap file) unify with the sites the prologues
// intern live.
func EmitSiteTable(w io.Writer, found []Site) error {
	rows := make([]sites.Tuple, 0, len(found))
	for _, s := range found {
		if s.Constructor {
			continue
		}
		rows = append(rows, sites.Tuple{
			Loc:    fmt.Sprintf("%s:%d", s.File, s.Line),
			Class:  s.Class,
			Method: s.Method,
			Write:  s.Write,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Less(rows[j]) })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
