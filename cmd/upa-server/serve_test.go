package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"upa/internal/serve"
)

// adHocCountJSON is a wire-format DP count over the orders relation:
// SELECT count(*) FROM orders WHERE o_orderkey > 0.
const adHocCountJSON = `{
  "op": "aggregate",
  "aggs": [{"name": "n", "func": "count"}],
  "input": {
    "op": "filter",
    "pred": {"op": "gt", "left": {"col": "o_orderkey"}, "right": {"int": 0}},
    "input": {"op": "scan", "table": "orders"}
  }
}`

// testServeServer builds a server whose serving layer has one tenant with a
// finite ε budget, so budget exhaustion is reachable in a handful of requests.
func testServeServer(t *testing.T, budget float64) *server {
	t.Helper()
	return testServeServerSpill(t, budget, -1)
}

// testServeServerSpill is testServeServer with an explicit engine memory
// budget (negative: in-memory, zero: spill every materialization).
func testServeServerSpill(t *testing.T, budget float64, spillBudget int64) *server {
	t.Helper()
	srv, err := newServer(serverConfig{
		Lineitems:   2000,
		LSRecords:   1500,
		Skew:        0.2,
		Seed:        5,
		SampleSize:  150,
		Epsilon:     0.1,
		SpillBudget: spillBudget,
		Tenants:     []serve.TenantSpec{{Name: "acme", Budget: budget}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func queryBody(epsilon float64, seed uint64) string {
	req := map[string]any{
		"tenant":   "acme",
		"user":     "alice",
		"planJSON": json.RawMessage(adHocCountJSON),
		"epsilon":  epsilon,
		"seed":     seed,
	}
	b, _ := json.Marshal(req)
	return string(b)
}

// TestQueryShapeGolden pins the POST /query response schema for both the
// freshly computed and the cache-hit form.
func TestQueryShapeGolden(t *testing.T) {
	h := testServeServer(t, 1).routes()

	rec, body := doJSON(t, h, http.MethodPost, "/query", queryBody(0.25, 7))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %v", rec.Code, body)
	}
	if body["cached"] != false || body["charged"].(float64) != 0.25 {
		t.Fatalf("fresh release = %v", body)
	}
	var v any
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "query_shape", shapeOf(v))

	// Same (plan, ε, seed): a cache hit, charged zero, same schema.
	rec, body = doJSON(t, h, http.MethodPost, "/query", queryBody(0.25, 7))
	if rec.Code != http.StatusOK {
		t.Fatalf("cached status = %d: %v", rec.Code, body)
	}
	if body["cached"] != true || body["charged"].(float64) != 0 {
		t.Fatalf("cache hit = %v", body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "query_cached_shape", shapeOf(v))
}

// TestQueryBudgetExhaustedShapeGolden pins the 429 schema and the
// Retry-After contract when a tenant's ε budget is spent.
func TestQueryBudgetExhaustedShapeGolden(t *testing.T) {
	h := testServeServer(t, 0.25).routes()

	if rec, body := doJSON(t, h, http.MethodPost, "/query", queryBody(0.25, 1)); rec.Code != http.StatusOK {
		t.Fatalf("first query status = %d: %v", rec.Code, body)
	}
	rec, body := doJSON(t, h, http.MethodPost, "/query", queryBody(0.25, 2))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("exhausted status = %d: %v", rec.Code, body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	var v any
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "query_budget429_shape", shapeOf(v))
}

// TestQueryBadPlanShapeGolden pins the 400 schema for malformed plans.
func TestQueryBadPlanShapeGolden(t *testing.T) {
	h := testServeServer(t, 1).routes()

	rec, _ := doJSON(t, h, http.MethodPost, "/query",
		`{"tenant":"acme","user":"alice","planJSON":{"op":"pivot"}}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad plan status = %d", rec.Code)
	}
	var v any
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "query_badplan_shape", shapeOf(v))

	// A syntactically broken body takes the same error schema.
	if rec, _ := doJSON(t, h, http.MethodPost, "/query", `{notjson`); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body status = %d", rec.Code)
	}
}

// TestQueryOversizedBodyRejected: a /query body past the 1 MiB limit is
// answered 413 — not truncated into a 400 — and charges no ε.
func TestQueryOversizedBodyRejected(t *testing.T) {
	h := testServeServer(t, 1).routes()
	body := `{"tenant":"acme","user":"` + strings.Repeat("a", 1<<20) + `","planJSON":` + adHocCountJSON + `,"epsilon":0.25,"seed":1}`
	if rec, resp := doJSON(t, h, http.MethodPost, "/query", body); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d: %v", rec.Code, resp)
	}
	_, budget := doJSON(t, h, http.MethodGet, "/budget", "")
	acme := budget["tenants"].([]any)[0].(map[string]any)
	if acme["spent"].(float64) != 0 {
		t.Errorf("oversized body charged ε: %v", acme)
	}
}

// TestBudgetShapeGolden pins the GET /budget schema after a charge has
// landed, and checks the numbers it reports against the query's charge.
func TestBudgetShapeGolden(t *testing.T) {
	h := testServeServer(t, 1).routes()
	if rec, body := doJSON(t, h, http.MethodPost, "/query", queryBody(0.25, 3)); rec.Code != http.StatusOK {
		t.Fatalf("query status = %d: %v", rec.Code, body)
	}
	rec, body := doJSON(t, h, http.MethodGet, "/budget", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var v any
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "budget_shape", shapeOf(v))

	tenants := body["tenants"].([]any)
	if len(tenants) != 1 {
		t.Fatalf("tenants = %v", body["tenants"])
	}
	acme := tenants[0].(map[string]any)
	if acme["tenant"] != "acme" || acme["spent"].(float64) != 0.25 {
		t.Errorf("budget report = %v", acme)
	}
}

// TestQuerySpillBudget runs the multi-tenant SQL path with every engine
// materialization forced to disk: relational rows (sql.Value cells) must
// survive the spill codec round-trip, and the noisy release must be
// byte-identical to the in-memory server under the same seed — the serving
// regression for the out-of-core path.
func TestQuerySpillBudget(t *testing.T) {
	spilled := testServeServerSpill(t, 1, 0)
	defer spilled.close()
	inMem := testServeServer(t, 1)

	recS, bodyS := doJSON(t, spilled.routes(), http.MethodPost, "/query", queryBody(0.25, 11))
	recM, bodyM := doJSON(t, inMem.routes(), http.MethodPost, "/query", queryBody(0.25, 11))
	if recS.Code != http.StatusOK || recM.Code != http.StatusOK {
		t.Fatalf("query status spilled=%d inmem=%d (%v / %v)", recS.Code, recM.Code, bodyS, bodyM)
	}
	sOut, _ := json.Marshal(bodyS["output"])
	mOut, _ := json.Marshal(bodyM["output"])
	if string(sOut) != string(mOut) {
		t.Errorf("spilled SQL release %s differs from in-memory %s", sOut, mOut)
	}
	if m := spilled.eng.Metrics(); m.SpilledBytes == 0 {
		t.Error("budget 0 serve engine did not spill")
	}
}

// TestUnknownTenantRejected covers the 404 path through the HTTP layer.
func TestUnknownTenantRejected(t *testing.T) {
	h := testServeServer(t, 1).routes()
	rec, _ := doJSON(t, h, http.MethodPost, "/query",
		`{"tenant":"ghost","user":"alice","plan":"tpch6"}`)
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown tenant status = %d", rec.Code)
	}
}
