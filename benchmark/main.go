// Command benchmark is the benchmark of this repository: it builds nothing
// itself (benchmark/run.sh does), spawns ./cmd/upa-server as a subprocess,
// drives one of five workloads against it closed-loop, checks every answer,
// and prints the metrics BENCHMARK.json declares, by name, as one JSON line.
//
//	bash benchmark/run.sh --workload serve_hit --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --workload all --seed 1 --rounds 3 --out benchmark/out
//	bash benchmark/run.sh --compare old/results.json new/results.json
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// replays the workload with a span around every call the benchmark makes
// into a layer, writes the spans to <out>/trace.<workload>.json and prints
// the per-layer metrics. The program under test is not instrumented.
// See README.md beside this file.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	rounds    int
	serverBin string
	specPath  string
	outDir    string
	tmpDir    string // private TMPDIR of this process and its servers, under outDir
	sz        sizes
	spec      *benchSpec
	log       io.Writer
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runHeader says what produced a result file or a trace.
type runHeader struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"goVersion"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Lineitems  int     `json:"lineitems"`
	LSRecords  int     `json:"lsrecords"`
	SampleSize int     `json:"sampleSize"`
}

// commit is the commit under test; benchmark/run.sh sets it at link time.
var commit = "unknown"

func (c *config) header() runHeader {
	return runHeader{
		Commit: commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: c.seed, Seconds: c.seconds, Lineitems: c.sz.lineitems, LSRecords: c.sz.lsRecords, SampleSize: c.sz.sampleSize,
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{log: stderr}
	var trace int
	var compare bool
	fs.StringVar(&cfg.workload, "workload", "", "workload to run (see BENCHMARK.json), or \"all\"")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated data and of every request")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "how long one run measures")
	fs.IntVar(&trace, "trace", 0, "1: traced pass, prints the per-layer metrics")
	fs.IntVar(&cfg.rounds, "rounds", 3, "with -workload all: runs per workload, interleaved; medians are reported")
	fs.BoolVar(&compare, "compare", false, "compare two result files: -compare old.json new.json")
	fs.StringVar(&cfg.serverBin, "server", ".bench_build/upa-server", "the upa-server binary to spawn")
	fs.StringVar(&cfg.specPath, "spec", "BENCHMARK.json", "the benchmark's declaration")
	fs.StringVar(&cfg.outDir, "out", "benchmark/out", "directory for traces, result files, server logs and temp files")
	fs.IntVar(&cfg.sz.lineitems, "lineitems", 100000, "TPC-H lineitem rows")
	fs.IntVar(&cfg.sz.lsRecords, "lsrecords", 20000, "life-science records")
	fs.IntVar(&cfg.sz.sampleSize, "n", 1000, "UPA sample size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec(cfg.specPath)
	if err != nil {
		return err
	}
	cfg.spec = spec
	cfg.trace = trace != 0
	if compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout)
	}
	if cfg.seed == 0 || cfg.seconds <= 0 {
		return errors.New("-seed and -seconds must be positive")
	}

	outDir, err := filepath.Abs(cfg.outDir)
	if err != nil {
		return err
	}
	cfg.outDir = outDir
	cfg.tmpDir = filepath.Join(outDir, "tmp-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.tmpDir)
	// In-process engines that spill do so under this process's TMPDIR too.
	if err := os.Setenv("TMPDIR", cfg.tmpDir); err != nil {
		return err
	}

	// SIGINT/SIGTERM cancel ctx, which kills the server (exec.CommandContext)
	// and unwinds the run through its deferred clean-up.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	h := cfg.header()
	fmt.Fprintf(cfg.log, "benchmark: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %gs per run, lineitems %d, lsrecords %d, n %d\n",
		h.Commit, h.GoVersion, h.NProc, h.GOMAXPROCS, h.Seed, h.Seconds, h.Lineitems, h.LSRecords, h.SampleSize)

	if cfg.workload == "all" {
		return runAll(ctx, cfg, stdout)
	}
	def, ok := findWorkload(cfg.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %v)", cfg.workload, spec.workloadNames())
	}
	res, err := runWorkload(ctx, cfg, def)
	if err != nil {
		return err
	}
	printMetrics(cfg.log, def.name, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

// firstError returns the first non-nil error. (errors.Join would do, but
// upa-vet's ctxpropagation matches callees by name and takes any Join called
// beside a context for mapreduce.Join.)
func firstError(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func printMetrics(w io.Writer, workload string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", workload, res.Correct, res.Attempted, res.Failed)
	for _, name := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
}

// setupReps is how many times a run sets up; setup_s is their median. The
// last set-up is the one measured on.
const setupReps = 3

// runWorkload is one run of one workload: set up, measure for cfg.seconds,
// check, tear down. A failed correctness check is reported in the result
// (correct=false); an error means the run itself could not be carried out.
func runWorkload(ctx context.Context, cfg *config, def workloadDef) (res *result, err error) {
	// Each run keeps its servers' ledgers, logs of replays and spill
	// directories in a directory of its own: a later run must not replay an
	// earlier run's ledger.
	top := cfg.tmpDir
	scratch, err := os.MkdirTemp(top, def.name+"-")
	if err != nil {
		return nil, err
	}
	own := *cfg
	own.tmpDir = scratch
	cfg = &own
	var t target
	if def.name == "lib_paper9" {
		t = &paperTarget{cfg: cfg}
	} else {
		refStart := time.Now()
		ref, err := buildReference(cfg.sz, cfg.seed)
		if err != nil {
			return nil, err
		}
		if t, err = newServeTarget(cfg, def, ref); err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.log, "%s: reference data and exact answers in %.2fs (not part of setup_s)\n", def.name, time.Since(refStart).Seconds())
	}
	defer func() { err = firstError(err, t.teardown(), noSpillDirs(top), os.RemoveAll(scratch)) }()

	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if err := t.teardown(); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := t.setup(ctx); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if cfg.trace {
			break // set-up time is an end-to-end metric; the traced pass sets up once
		}
	}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return runTraced(ctx, cfg, def, t, budget)
	}
	s, err := measure(ctx, t, budget, nil)
	if err != nil {
		return nil, err
	}
	values, err := endToEnd(t, s)
	if err != nil {
		return nil, err
	}
	values["setup_s"] = median(setups)
	res = &result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed}
	if s.firstErr != nil {
		fmt.Fprintf(cfg.log, "%s: first failed %v\n", def.name, s.firstErr)
	}
	if err := t.finish(); err != nil {
		res.Correct = false
		fmt.Fprintf(cfg.log, "%s: after-workload check failed: %v\n", def.name, err)
	}
	fmt.Fprintf(cfg.log, "%s: %d latency samples, p50 by segment %.4v ms, set-ups %.3v s, rel_err_p50 %.6g over the first %d releases\n",
		def.name, len(s.lat), s.segP50, setups, median(t.relErrs()), len(t.relErrs()))
	if res.Metrics, err = label(cfg.spec.EndToEnd, values); err != nil {
		return nil, err
	}
	return res, nil
}
