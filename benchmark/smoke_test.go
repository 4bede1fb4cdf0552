package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at a fiftieth of the
// data and a fraction of a second each, and checks the contract of the
// result file: exactly the workloads and metrics BENCHMARK.json declares,
// well-formed names, finite values, no failed operation, and a comparison of
// the file with itself that is "ok" on every row.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "upa-server")
	build := exec.Command("go", "build", "-o", bin, "./cmd/upa-server")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build upa-server: %v\n%s", err, out)
	}

	var stdout, stderr bytes.Buffer
	args := []string{"-workload", "all", "-rounds", "1", "-seed", "3", "-seconds", "0.25",
		"-lineitems", "2000", "-lsrecords", "1500", "-n", "150",
		"-server", bin, "-spec", "../BENCHMARK.json", "-out", dir}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}

	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file resultFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(spec.Workloads) {
		t.Errorf("result file has %d workloads, BENCHMARK.json %d", len(file.Workloads), len(spec.Workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range spec.Workloads {
		got := file.Workloads[w.Name]
		if got == nil {
			t.Errorf("workload %s missing from the result file", w.Name)
			continue
		}
		if !name.MatchString(w.Name) {
			t.Errorf("workload name %q is not well-formed", w.Name)
		}
		if got.Failed != 0 || !got.Correct || got.Attempted < 1 {
			t.Errorf("%s: attempted=%d failed=%d correct=%v", w.Name, got.Attempted, got.Failed, got.Correct)
		}
		if len(got.EndToEnd) != len(spec.EndToEnd) || len(got.PerLayer) != len(spec.PerLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, declared %d and %d",
				w.Name, len(got.EndToEnd), len(got.PerLayer), len(spec.EndToEnd), len(spec.PerLayer))
		}
		for _, m := range spec.EndToEnd {
			v, ok := got.EndToEnd[m.Name]
			if !ok || !name.MatchString(m.Name) || !(v.Median > 0) || math.IsInf(v.Median, 0) {
				t.Errorf("%s: end-to-end metric %q = %v (present %v)", w.Name, m.Name, v.Median, ok)
			}
		}
		for _, m := range spec.PerLayer {
			v, ok := got.PerLayer[m.Name]
			if !ok || !name.MatchString(m.Name) || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer metric %q = %v (present %v)", w.Name, m.Name, v.Value, ok)
			}
		}
	}

	var table bytes.Buffer
	results := filepath.Join(dir, "results.json")
	if err := run([]string{"-spec", "../BENCHMARK.json", "-compare", results, results}, &table, &stderr); err != nil {
		t.Errorf("comparing a result file with itself: %v\n%s", err, table.String())
	}
	if rows := strings.Count(table.String(), " ok\n"); rows != len(spec.Workloads)*len(spec.EndToEnd) {
		t.Errorf("self-comparison has %d ok rows, want %d:\n%s", rows, len(spec.Workloads)*len(spec.EndToEnd), table.String())
	}

	if left, _ := filepath.Glob(filepath.Join(dir, "tmp-*")); len(left) != 0 {
		t.Errorf("temp directories left behind: %v", left)
	}
}
