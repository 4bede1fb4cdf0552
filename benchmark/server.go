package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one upa-server subprocess and the HTTP client that drives it.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	client *http.Client
	stderr *os.File
	exited chan struct{} // closed once Wait has returned
	err    error         // Wait's result, valid after exited closes
}

// freePort asks the kernel for an unused TCP port by binding port 0 and
// closing the listener again.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a free port: %w", err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	if err := l.Close(); err != nil {
		return 0, fmt.Errorf("release the probed port: %w", err)
	}
	return port, nil
}

// startServer spawns bin with the production configuration of the issue
// (persistence on, one unlimited tenant) and returns once GET /healthz
// answers 200. The process dies with ctx; its stderr goes to stderrPath and
// its temp files (spill directories) under tmpDir.
func startServer(ctx context.Context, bin string, sz sizes, seed uint64, spillBudget int64, tmpDir, stderrPath string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	stderr, err := os.OpenFile(stderrPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open server log: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.CommandContext(ctx, bin,
		"-addr", addr,
		"-lineitems", strconv.Itoa(sz.lineitems),
		"-lsrecords", strconv.Itoa(sz.lsRecords),
		"-skew", strconv.FormatFloat(skew, 'g', -1, 64),
		"-n", strconv.Itoa(sz.sampleSize),
		"-epsilon", strconv.FormatFloat(epsilon, 'g', -1, 64),
		"-seed", strconv.FormatUint(seed, 10),
		"-tenants", tenant+":0:0",
		"-servestate", tmpDir+"/ledger.json",
		"-spillbudget", strconv.FormatInt(spillBudget, 10),
	)
	cmd.Env = append(os.Environ(), "TMPDIR="+tmpDir)
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		stderr.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &serverProc{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{}, // its own, so that stop can close its idle connection
		},
		stderr: stderr,
		exited: make(chan struct{}),
	}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	if err := s.awaitHealthy(30 * time.Second); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

func (s *serverProc) awaitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-s.exited:
			return fmt.Errorf("upa-server exited before it was ready: %v (see %s)", s.err, s.stderr.Name())
		default:
		}
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("upa-server not healthy after %v (see %s)", timeout, s.stderr.Name())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the server the way an operator would (SIGTERM, then wait) and
// reports a non-zero exit; a server that ignores the signal is killed.
func (s *serverProc) stop() error {
	defer s.stderr.Close()
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("signal upa-server: %w", err)
	}
	select {
	case <-s.exited:
		if s.err != nil {
			return fmt.Errorf("upa-server exit: %w", s.err)
		}
		return nil
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		return errors.New("upa-server did not drain within 20s of SIGTERM; killed")
	}
}

// kill ends the server at once; for error paths, where its state no longer
// matters.
func (s *serverProc) kill() {
	s.cmd.Process.Kill()
	<-s.exited
	s.stderr.Close()
}

func (s *serverProc) pid() int { return s.cmd.Process.Pid }

// getJSON decodes the body of GET path into v.
func (s *serverProc) getJSON(path string, v any) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// queryReply is the part of a POST /query response the benchmark checks.
type queryReply struct {
	Cached  bool      `json:"cached"`
	Charged float64   `json:"charged"`
	Output  []float64 `json:"output"`
}

// postQuery sends one POST /query and decodes the reply; any non-200 status
// is an error.
func (s *serverProc) postQuery(body []byte) (queryReply, error) {
	var reply queryReply
	resp, err := s.client.Post(s.base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return reply, fmt.Errorf("POST /query: status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return reply, fmt.Errorf("decode /query reply: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	return reply, nil
}

// serverCounters is the part of GET /metrics the benchmark reads: engine
// activity counters plus the bench tenant's serving counters.
type serverCounters struct {
	TasksRun           float64 `json:"tasksRun"`
	TaskRetries        float64 `json:"taskRetries"`
	RecordsMapped      float64 `json:"recordsMapped"`
	RecordsBatched     float64 `json:"recordsBatched"`
	BatchesProcessed   float64 `json:"batchesProcessed"`
	ShuffleRounds      float64 `json:"shuffleRounds"`
	RecordsShuffled    float64 `json:"recordsShuffled"`
	RecordsPreCombine  float64 `json:"recordsPreCombine"`
	RecordsPostCombine float64 `json:"recordsPostCombine"`
	SpilledBytes       float64 `json:"spilledBytes"`
	SpillReads         float64 `json:"spillReads"`
	Tenants            []struct {
		Tenant       string  `json:"tenant"`
		Admitted     float64 `json:"admitted"`
		CacheHits    float64 `json:"cacheHits"`
		ShedQueue    float64 `json:"shedQueue"`
		Failed       float64 `json:"failed"`
		EpsilonSpent float64 `json:"epsilonSpent"`
	} `json:"tenants"`
}

// procStat reads a process's CPU time (user+system) and peak resident set
// from /proc.
func procStat(pid int) (cpu time.Duration, peakRSSMB float64, err error) {
	dir := "/proc/" + strconv.Itoa(pid)
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line, in clock ticks (100 per second on Linux).
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	fields := strings.Fields(string(rest))
	if len(fields) < 13 {
		return 0, 0, fmt.Errorf("short %s/stat", dir)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("parse %s/stat cpu fields", dir)
	}
	cpu = time.Duration(utime+stime) * (time.Second / 100)

	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, 0, fmt.Errorf("parse VmHWM of %d: %w", pid, err)
			}
			return cpu, kb / 1024, nil
		}
	}
	return 0, 0, fmt.Errorf("no VmHWM in %s/status", dir)
}
