package seededdeterminism_test

import (
	"path/filepath"
	"testing"

	"upa/internal/analyzers/analyzertest"
	"upa/internal/analyzers/seededdeterminism"
)

// TestSeededDeterminismCritical loads the golden package under a
// determinism-critical import path, where the bans apply.
func TestSeededDeterminismCritical(t *testing.T) {
	dir := filepath.Join("..", "testdata", "src", "seededdeterminism")
	analyzertest.Run(t, dir, "upa/internal/mapreduce/fake", seededdeterminism.Analyzer)
}

// TestSeededDeterminismOff loads equivalent patterns under a non-critical
// path: the analyzer must stay silent.
func TestSeededDeterminismOff(t *testing.T) {
	dir := filepath.Join("..", "testdata", "src", "seededdeterminism_off")
	analyzertest.Run(t, dir, "upa/internal/core/fake", seededdeterminism.Analyzer)
}

func TestCovered(t *testing.T) {
	for path, want := range map[string]bool{
		"upa/internal/mapreduce":         true,
		"upa/internal/mapreduce/shuffle": true,
		// The spill codec/store files live in the engine package itself;
		// a future split-out subpackage stays covered by the prefix rule.
		"upa/internal/mapreduce/spill": true,
		"upa/internal/jobgraph":        true,
		"upa/examples/wordcount":       true,
		"upa/internal/core":            false,
		"upa/internal/mapreducer":      false,
	} {
		if got := seededdeterminism.Covered(path); got != want {
			t.Errorf("Covered(%q) = %v, want %v", path, got, want)
		}
	}
}
