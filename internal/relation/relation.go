// Package relation provides the relational metadata layer: column
// statistics (row counts, distinct keys, maximum key frequency) counted in
// memory. FLEX's static analysis consumes exactly this metadata — it never
// looks at actual join matches, which is the root of its overestimation
// (§II-B) — and the SQL optimizer orders joins by it.
package relation

import "fmt"

// ColumnStats summarizes one join column of one relation.
type ColumnStats struct {
	// RowCount is the number of rows in the relation.
	RowCount int
	// Distinct is the number of distinct keys in the column.
	Distinct int
	// MaxFreq is the frequency of the most frequently occurring key — the
	// quantity FLEX multiplies into its worst-case join sensitivity.
	MaxFreq int
}

// StatsOf computes the statistics of the column selected by key over
// records, in one pass and without an engine job, so the SQL optimizer can
// call it at plan-rewrite time. It exposes only count aggregates (row count,
// distinct keys, top frequency), the metadata FLEX consumes, never
// individual key values.
func StatsOf[T any, K comparable](records []T, key func(T) K) ColumnStats {
	counts := make(map[K]int, len(records))
	for _, t := range records {
		counts[key(t)]++
	}
	stats := ColumnStats{RowCount: len(records), Distinct: len(counts)}
	for _, c := range counts {
		if c > stats.MaxFreq {
			stats.MaxFreq = c
		}
	}
	return stats
}

// JoinCardinality estimates the output size of an equi-join between the
// column summarized by s and the one summarized by other: the standard
// |L|·|R| / max(distinct) uniform-key estimate, capped by the skew bound
// that each row matches at most the other side's most frequent key
// (|L|·maxfreqR and |R|·maxfreqL). Estimates only order joins; they never
// affect semantics.
func (s ColumnStats) JoinCardinality(other ColumnStats) int {
	if s.RowCount == 0 || other.RowCount == 0 {
		return 0
	}
	d := s.Distinct
	if other.Distinct > d {
		d = other.Distinct
	}
	if d < 1 {
		d = 1
	}
	est := int64(s.RowCount) * int64(other.RowCount) / int64(d)
	if other.MaxFreq > 0 {
		if bound := int64(s.RowCount) * int64(other.MaxFreq); bound < est {
			est = bound
		}
	}
	if s.MaxFreq > 0 {
		if bound := int64(other.RowCount) * int64(s.MaxFreq); bound < est {
			est = bound
		}
	}
	return int(est)
}

// Validate checks internal consistency of the statistics.
func (s ColumnStats) Validate() error {
	if s.RowCount < 0 || s.Distinct < 0 || s.MaxFreq < 0 {
		return fmt.Errorf("relation: negative statistic: %+v", s)
	}
	if s.Distinct > s.RowCount {
		return fmt.Errorf("relation: %d distinct keys in %d rows", s.Distinct, s.RowCount)
	}
	if s.MaxFreq > s.RowCount {
		return fmt.Errorf("relation: max frequency %d exceeds %d rows", s.MaxFreq, s.RowCount)
	}
	if s.RowCount > 0 && (s.Distinct == 0 || s.MaxFreq == 0) {
		return fmt.Errorf("relation: non-empty relation with empty column stats: %+v", s)
	}
	return nil
}
