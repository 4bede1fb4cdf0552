package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testServer(t *testing.T, statePath string) *server {
	t.Helper()
	srv, err := newServer(serverConfig{
		Lineitems:   2000,
		LSRecords:   1500,
		Skew:        0.2,
		Seed:        5,
		SampleSize:  150,
		Epsilon:     0.1,
		StatePath:   statePath,
		SpillBudget: -1, // in-memory: spill behaviour has its own tests below
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func doJSON(t *testing.T, h http.Handler, method, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var decoded map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("%s %s returned non-JSON (%d): %s", method, path, rec.Code, rec.Body.String())
	}
	return rec, decoded
}

func TestQueriesEndpoint(t *testing.T) {
	h := testServer(t, "").routes()
	rec, body := doJSON(t, h, http.MethodGet, "/queries", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	list, ok := body["queries"].([]any)
	if !ok || len(list) != 9 {
		t.Fatalf("queries = %v", body["queries"])
	}
}

func TestReleaseEndpoint(t *testing.T) {
	h := testServer(t, "").routes()
	rec, body := doJSON(t, h, http.MethodPost, "/release", `{"query":"TPCH6"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %v", rec.Code, body)
	}
	if body["query"] != "TPCH6" {
		t.Errorf("query = %v", body["query"])
	}
	if out, ok := body["output"].([]any); !ok || len(out) != 1 {
		t.Errorf("output = %v", body["output"])
	}
	if body["attackSuspected"] != false {
		t.Errorf("first release flagged: %v", body["attackSuspected"])
	}
	// The response must never leak raw (pre-noise) outputs — nor the
	// inferred sensitivity, which is equally data-dependent (regression
	// for the dpflow finding that used to ship it to the analyst).
	for key := range body {
		if key == "rawOutput" || key == "vanillaOutput" || key == "sensitivity" {
			t.Errorf("response leaks %s", key)
		}
	}
}

func TestReleaseValidation(t *testing.T) {
	h := testServer(t, "").routes()
	if rec, _ := doJSON(t, h, http.MethodPost, "/release", `{"query":"TPCH99"}`); rec.Code != http.StatusNotFound {
		t.Errorf("unknown query status = %d", rec.Code)
	}
	if rec, _ := doJSON(t, h, http.MethodPost, "/release", `{notjson`); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body status = %d", rec.Code)
	}
}

func TestMetricsAndHistoryEndpoints(t *testing.T) {
	srv := testServer(t, "")
	h := srv.routes()
	if _, body := doJSON(t, h, http.MethodPost, "/release", `{"query":"TPCH1"}`); body["query"] != "TPCH1" {
		t.Fatal("release failed")
	}
	_, metrics := doJSON(t, h, http.MethodGet, "/metrics", "")
	if metrics["recordsMapped"].(float64) <= 0 {
		t.Errorf("metrics empty: %v", metrics)
	}
	_, hist := doJSON(t, h, http.MethodGet, "/history", "")
	if hist["releases"].(float64) != 1 {
		t.Errorf("history releases = %v", hist["releases"])
	}
	if hist["persisted"] != false {
		t.Errorf("persisted = %v, want false", hist["persisted"])
	}
}

func TestHealthzEndpoint(t *testing.T) {
	srv := testServer(t, "")
	h := srv.routes()
	rec, health := doJSON(t, h, http.MethodGet, "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if health["status"] != "ok" {
		t.Errorf("status = %v", health["status"])
	}
	if health["releases"].(float64) != 0 || health["epsilonSpent"].(float64) != 0 {
		t.Errorf("fresh server reports activity: %v", health)
	}
	if health["uptimeSeconds"].(float64) < 0 {
		t.Errorf("negative uptime: %v", health["uptimeSeconds"])
	}
	if health["workers"].(float64) < 1 {
		t.Errorf("workers = %v", health["workers"])
	}
	if _, body := doJSON(t, h, http.MethodPost, "/release", `{"query":"TPCH6"}`); body["query"] != "TPCH6" {
		t.Fatal("release failed")
	}
	_, health = doJSON(t, h, http.MethodGet, "/healthz", "")
	if health["releases"].(float64) != 1 {
		t.Errorf("releases = %v after one release", health["releases"])
	}
	if health["epsilonSpent"].(float64) <= 0 {
		t.Errorf("epsilonSpent = %v after a successful release", health["epsilonSpent"])
	}
}

func TestConcurrentReleaseRequests(t *testing.T) {
	// Concurrent analysts hit /release simultaneously; the server's
	// release mutex serializes enforcer updates and every request gets a
	// well-formed answer.
	h := testServer(t, "").routes()
	const parallel = 6
	type result struct {
		code int
		ok   bool
	}
	results := make(chan result, parallel)
	queriesList := []string{"TPCH1", "TPCH6", "TPCH13", "KMeans", "TPCH11", "TPCH16"}
	for i := 0; i < parallel; i++ {
		go func(q string) {
			req := httptest.NewRequest(http.MethodPost, "/release",
				strings.NewReader(`{"query":"`+q+`"}`))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			var body map[string]any
			err := json.Unmarshal(rec.Body.Bytes(), &body)
			results <- result{code: rec.Code, ok: err == nil && body["query"] == q}
		}(queriesList[i])
	}
	for i := 0; i < parallel; i++ {
		r := <-results
		if r.code != http.StatusOK || !r.ok {
			t.Fatalf("concurrent release %d failed: %+v", i, r)
		}
	}
}

// TestServerSpillBudget runs a whole server with -spillbudget 0: every
// engine materialization spills to temp files, the noisy release must still
// be byte-identical to the in-memory server (same seed, same noise stream),
// /metrics surfaces the spill counters, and close() removes the temp
// directory.
func TestServerSpillBudget(t *testing.T) {
	spilled, err := newServer(serverConfig{
		Lineitems:   2000,
		LSRecords:   1500,
		Skew:        0.2,
		Seed:        5,
		SampleSize:  150,
		Epsilon:     0.1,
		SpillBudget: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	inMem := testServer(t, "")

	recS, bodyS := doJSON(t, spilled.routes(), http.MethodPost, "/release", `{"query":"TPCH6"}`)
	recM, bodyM := doJSON(t, inMem.routes(), http.MethodPost, "/release", `{"query":"TPCH6"}`)
	if recS.Code != http.StatusOK || recM.Code != http.StatusOK {
		t.Fatalf("release status spilled=%d inmem=%d (%v / %v)", recS.Code, recM.Code, bodyS, bodyM)
	}
	sOut, _ := json.Marshal(bodyS["output"])
	mOut, _ := json.Marshal(bodyM["output"])
	if string(sOut) != string(mOut) {
		t.Errorf("spilled release output %s differs from in-memory %s", sOut, mOut)
	}

	_, metrics := doJSON(t, spilled.routes(), http.MethodGet, "/metrics", "")
	if metrics["spilledBytes"].(float64) <= 0 || metrics["spillFiles"].(float64) <= 0 {
		t.Errorf("spill counters empty under budget 0: spilledBytes=%v spillFiles=%v",
			metrics["spilledBytes"], metrics["spillFiles"])
	}
	if metrics["memoryBudget"].(float64) != 0 {
		t.Errorf("memoryBudget = %v, want 0", metrics["memoryBudget"])
	}

	if err := spilled.close(); err != nil {
		t.Fatalf("close spilled server: %v", err)
	}
}

// TestAttackAcrossServerRestart is the service-level replay of the §III
// attack: the enforcer state file carries the detection evidence across a
// full server restart.
func TestAttackAcrossServerRestart(t *testing.T) {
	state := filepath.Join(t.TempDir(), "enforcer.json")

	first := testServer(t, state)
	if rec, _ := doJSON(t, first.routes(), http.MethodPost, "/release", `{"query":"TPCH6"}`); rec.Code != http.StatusOK {
		t.Fatal("first release failed")
	}

	// Restart: new server process, same state file and dataset.
	second := testServer(t, state)
	_, hist := doJSON(t, second.routes(), http.MethodGet, "/history", "")
	if hist["releases"].(float64) != 1 {
		t.Fatalf("restored history releases = %v, want 1", hist["releases"])
	}
	rec, body := doJSON(t, second.routes(), http.MethodPost, "/release", `{"query":"TPCH6"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("second release failed: %v", body)
	}
	if body["attackSuspected"] != true {
		t.Errorf("identical rerun across restart not flagged: %v", body)
	}
}

// TestHandlerPanicAnswers500 serves the real routes beside a panicking one
// over a real listener: the panic is answered 500 with a generic JSON error
// and logged with its method, path and value, the server keeps serving, and
// the ε ledger is charged only for the query that succeeded.
func TestHandlerPanicAnswers500(t *testing.T) {
	var logs bytes.Buffer
	srv := testServeServer(t, 1)
	mux := http.NewServeMux()
	mux.Handle("/", srv.routes())
	mux.HandleFunc("POST /boom", func(http.ResponseWriter, *http.Request) { panic("boom: pre-noise 42") })
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = newHTTPServer("", recoverPanics(slog.New(slog.NewJSONHandler(&logs, nil)), mux))
	ts.Start()
	defer ts.Close()

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	code, body := post("/boom", "{}")
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking handler status = %d: %s", code, body)
	}
	var reply map[string]any
	if err := json.Unmarshal([]byte(body), &reply); err != nil || reply["error"] == nil {
		t.Fatalf("panic reply is not a JSON error: %q", body)
	}
	if strings.Contains(body, "boom") || strings.Contains(body, "goroutine") {
		t.Errorf("panic reply leaks the panic value or stack: %q", body)
	}
	for _, want := range []string{`"method":"POST"`, `"path":"/boom"`, `"panic":"boom: pre-noise 42"`} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("panic log lacks %s: %s", want, logs.String())
		}
	}

	if code, body := post("/query", queryBody(0.25, 9)); code != http.StatusOK {
		t.Fatalf("query after a panic: status = %d: %s", code, body)
	}
	if spent := srv.svc.Report()[0].Spent; spent != 0.25 {
		t.Errorf("ε spent = %v, want only the successful query's 0.25", spent)
	}
}

// TestHTTPServerTimeouts: the listening server bounds every phase of a
// connection, not only the request headers.
func TestHTTPServerTimeouts(t *testing.T) {
	s := newHTTPServer(":0", http.NotFoundHandler())
	for name, got := range map[string]time.Duration{
		"ReadHeaderTimeout": s.ReadHeaderTimeout,
		"ReadTimeout":       s.ReadTimeout,
		"WriteTimeout":      s.WriteTimeout,
		"IdleTimeout":       s.IdleTimeout,
	} {
		if got <= 0 {
			t.Errorf("%s = %v, want a positive bound", name, got)
		}
	}
	if s.ReadTimeout < s.ReadHeaderTimeout {
		t.Errorf("ReadTimeout %v is shorter than ReadHeaderTimeout %v", s.ReadTimeout, s.ReadHeaderTimeout)
	}
}
