package bench

import (
	"fmt"
	"strings"

	"upa/internal/queries"
)

// SupportRow is one row of Table II.
type SupportRow struct {
	Query         string
	DatasetRows   int
	Kind          queries.Kind
	UPASupported  bool // always true: UPA supports all nine queries
	FLEXSupported bool
}

// Table2 regenerates Table II: the query support matrix.
func Table2(cfg Config) ([]SupportRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	w, err := cfg.Workload(0)
	if err != nil {
		return nil, err
	}
	rows := make([]SupportRow, 0, 9)
	for _, r := range w.All() {
		rows = append(rows, SupportRow{
			Query:         r.Name(),
			DatasetRows:   r.DatasetSize(),
			Kind:          r.Kind(),
			UPASupported:  true,
			FLEXSupported: r.FLEXPlan().Supported(),
		})
	}
	return rows, nil
}

// RenderTable2 renders the support matrix as aligned text.
func RenderTable2(rows []SupportRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: evaluation queries and support matrix\n")
	fmt.Fprintf(&b, "%-18s %12s %-17s %-6s %-6s\n", "Query", "Rows", "Type", "UPA", "FLEX")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %12d %-17s %-6s %-6s\n",
			r.Query, r.DatasetRows, r.Kind, mark(r.UPASupported), mark(r.FLEXSupported))
	}
	return b.String()
}

func mark(ok bool) string {
	if ok {
		return "yes"
	}
	return "no"
}
