package relation

import (
	"math/rand/v2"
	"testing"
)

func TestKeyFrequency(t *testing.T) {
	records := []string{"a", "b", "a", "c", "a", "b"}
	stats := StatsOf(records, func(s string) string { return s })
	if stats.RowCount != 6 {
		t.Errorf("RowCount = %d, want 6", stats.RowCount)
	}
	if stats.Distinct != 3 {
		t.Errorf("Distinct = %d, want 3", stats.Distinct)
	}
	if stats.MaxFreq != 3 {
		t.Errorf("MaxFreq = %d, want 3", stats.MaxFreq)
	}
	if err := stats.Validate(); err != nil {
		t.Errorf("computed stats invalid: %v", err)
	}
}

func TestKeyFrequencyEmpty(t *testing.T) {
	stats := StatsOf(nil, func(s string) string { return s })
	if stats != (ColumnStats{}) {
		t.Errorf("empty relation stats = %+v, want zero", stats)
	}
}

func TestKeyFrequencyDerivedKey(t *testing.T) {
	records := []int{1, 2, 3, 4, 5, 6, 7, 8}
	stats := StatsOf(records, func(x int) int { return x % 3 })
	if stats.Distinct != 3 {
		t.Errorf("Distinct = %d, want 3", stats.Distinct)
	}
	if stats.MaxFreq != 3 { // residues 1 and 2 occur 3 times
		t.Errorf("MaxFreq = %d, want 3", stats.MaxFreq)
	}
}

func TestKeyFrequencySingleRecord(t *testing.T) {
	stats := StatsOf([]string{"only"}, func(s string) string { return s })
	want := ColumnStats{RowCount: 1, Distinct: 1, MaxFreq: 1}
	if stats != want {
		t.Errorf("single-record stats = %+v, want %+v", stats, want)
	}
	if err := stats.Validate(); err != nil {
		t.Errorf("computed stats invalid: %v", err)
	}
}

// TestStatsOfMatchesKeyFrequency pins StatsOf against a brute-force
// pairwise count over seeded random keys with repeats, and on empty input.
func TestStatsOfMatchesKeyFrequency(t *testing.T) {
	bruteForce := func(keys []int) ColumnStats {
		s := ColumnStats{RowCount: len(keys)}
		for i, k := range keys {
			freq, seenBefore := 0, false
			for j, o := range keys {
				if o == k {
					freq++
					seenBefore = seenBefore || j < i
				}
			}
			if !seenBefore {
				s.Distinct++
			}
			s.MaxFreq = max(s.MaxFreq, freq)
		}
		return s
	}
	rng := rand.New(rand.NewPCG(7, 11))
	identity := func(k int) int { return k }
	for trial := 0; trial < 20; trial++ {
		keys := make([]int, rng.IntN(200))
		span := 1 + rng.IntN(50) // few distinct values, so keys repeat
		for i := range keys {
			keys[i] = rng.IntN(span)
		}
		if got, want := StatsOf(keys, identity), bruteForce(keys); got != want {
			t.Errorf("trial %d (%d keys over %d values): StatsOf = %+v, brute force = %+v",
				trial, len(keys), span, got, want)
		}
	}
	if got := StatsOf(nil, identity); got != bruteForce(nil) {
		t.Errorf("StatsOf(nil) = %+v, want %+v", got, bruteForce(nil))
	}
}

func TestJoinCardinality(t *testing.T) {
	uniform := ColumnStats{RowCount: 100, Distinct: 100, MaxFreq: 1}
	skewed := ColumnStats{RowCount: 100, Distinct: 2, MaxFreq: 99}
	empty := ColumnStats{}

	// Key-unique sides join one-to-one.
	if got := uniform.JoinCardinality(uniform); got != 100 {
		t.Errorf("uniform⋈uniform = %d, want 100", got)
	}
	// A unique-key side caps the join at its own row count: each skewed row
	// matches at most maxfreq=1 uniform rows.
	if got := uniform.JoinCardinality(skewed); got != 100 {
		t.Errorf("uniform⋈skewed = %d, want 100 (capped by the unique side)", got)
	}
	// Fewer distinct keys on both sides means more matches per key.
	if skewed.JoinCardinality(skewed) <= uniform.JoinCardinality(uniform) {
		t.Errorf("low-distinct pair did not raise the estimate: %d vs %d",
			skewed.JoinCardinality(skewed), uniform.JoinCardinality(uniform))
	}
	// Symmetry and empties.
	if uniform.JoinCardinality(skewed) != skewed.JoinCardinality(uniform) {
		t.Error("JoinCardinality is not symmetric")
	}
	if empty.JoinCardinality(uniform) != 0 || uniform.JoinCardinality(empty) != 0 {
		t.Error("empty side must estimate zero")
	}
}

func TestValidate(t *testing.T) {
	bad := []ColumnStats{
		{RowCount: -1},
		{RowCount: 2, Distinct: 3, MaxFreq: 1},
		{RowCount: 2, Distinct: 1, MaxFreq: 3},
		{RowCount: 2, Distinct: 0, MaxFreq: 1},
		{RowCount: 2, Distinct: 1, MaxFreq: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid stats accepted: %+v", i, s)
		}
	}
	good := []ColumnStats{
		{},
		{RowCount: 5, Distinct: 2, MaxFreq: 4},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("case %d: valid stats rejected: %v", i, err)
		}
	}
}
