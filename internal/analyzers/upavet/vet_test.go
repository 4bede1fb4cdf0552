package upavet_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"upa/internal/analyzers/upavet"
)

func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestRepoIsVetClean is the repo-wide invariant: the whole module, with
// //upa:allow suppression active, produces zero diagnostics. Any new
// ambient nondeterminism, severed context chain, rogue ε-ledger write, or
// impure reducer fails this test until fixed or annotated with a
// justification.
func TestRepoIsVetClean(t *testing.T) {
	diags, src, err := upavet.CheckModule(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", src.Format(d))
	}
}

// TestAnnotationsAreLoadBearing runs the suite with suppression disabled and
// asserts the known annotated sites still fire. If a refactor removes the
// underlying pattern, the stale //upa:allow should be deleted too; if it
// silently stops matching, this test catches the analyzer regression —
// reverting any in-tree fix or annotation must make its analyzer fire.
func TestAnnotationsAreLoadBearing(t *testing.T) {
	diags, src, err := upavet.CheckModuleRaw(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, d := range diags {
		lines = append(lines, src.Format(d))
	}
	all := strings.Join(lines, "\n")

	wantSites := []struct{ file, analyzer string }{
		// Public convenience wrappers minting a root context.
		{filepath.Join("internal", "mapreduce", "dataset.go"), "ctxpropagation"},
		{filepath.Join("internal", "mapreduce", "reduce.go"), "ctxpropagation"},
		{filepath.Join("internal", "mapreduce", "shuffle.go"), "ctxpropagation"},
		{filepath.Join("internal", "core", "run.go"), "ctxpropagation"},
		// The jobgraph's default wall clock behind WithClock.
		{filepath.Join("internal", "jobgraph", "jobgraph.go"), "seededdeterminism"},
		// Bench harness wall-clock measurements.
		{filepath.Join("internal", "bench", "ablations.go"), "seededdeterminism"},
		{filepath.Join("internal", "bench", "fig2b.go"), "seededdeterminism"},
		{filepath.Join("internal", "bench", "fig4.go"), "seededdeterminism"},
		{filepath.Join("internal", "bench", "optexp.go"), "seededdeterminism"},
		{filepath.Join("internal", "bench", "spillexp.go"), "seededdeterminism"},
		// Deliberate pre-noise displays: the inspection CLI, the pedagogical
		// examples, and the paper-figure reports all surface sensitivities
		// and enforcer ranges over synthetic data on purpose.
		{filepath.Join("cmd", "upa-query", "main.go"), "dpflow"},
		{filepath.Join("examples", "attack-defense", "main.go"), "dpflow"},
		{filepath.Join("examples", "private-ml", "main.go"), "dpflow"},
		{filepath.Join("examples", "quickstart", "main.go"), "dpflow"},
		{filepath.Join("examples", "sql-vs-flex", "main.go"), "dpflow"},
		{filepath.Join("examples", "tpch-analytics", "main.go"), "dpflow"},
		{filepath.Join("internal", "bench", "ablations.go"), "dpflow"},
		{filepath.Join("internal", "bench", "fig3.go"), "dpflow"},
	}
	for _, site := range wantSites {
		found := false
		for _, line := range lines {
			if strings.Contains(line, site.file) && strings.Contains(line, site.analyzer+":") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("raw run did not fire %s at %s; a //upa:allow there is stale (or the analyzer regressed)\nraw diagnostics:\n%s",
				site.analyzer, site.file, all)
		}
	}

	// Every raw diagnostic must be one of the annotated files: anything else
	// would mean suppression is hiding an unannotated violation.
	for _, line := range lines {
		ok := false
		for _, site := range wantSites {
			if strings.Contains(line, site.file) {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("raw diagnostic outside the known annotated sites: %s", line)
		}
	}
}

// TestFactsAreDeterministic loads the module twice and demands byte-identical
// facts encodings: the vetx channel is a cache key input, so any map-order
// leak in summary computation would poison incremental vet runs.
func TestFactsAreDeterministic(t *testing.T) {
	root := moduleRoot(t)
	encode := func() []byte {
		t.Helper()
		_, mod, _, err := upavet.CheckModuleVerbose(root)
		if err != nil {
			t.Fatal(err)
		}
		data, err := mod.Facts().Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatalf("two loads of the same tree produced different facts encodings (%d vs %d bytes)", len(a), len(b))
	}
	if !bytes.Contains(a, []byte(`"sinkParams"`)) || !bytes.Contains(a, []byte(`"requiresLocks"`)) {
		t.Errorf("facts encoding looks empty; interprocedural summaries missing:\n%.2000s", a)
	}
}
