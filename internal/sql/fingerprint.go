package sql

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Fingerprint returns a canonical, collision-resistant identity for a plan:
// the hex SHA-256 of a framed serialization of the plan tree. Two plans get
// the same fingerprint exactly when they were built the same way over the
// same-shaped base relations — node for node, expression for expression,
// scan schema for scan schema (plus row counts, a cheap guard against the
// same table name carrying different data).
//
// The fingerprint is computed over the plan *as written*, before any
// optimizer rewrite: Optimize is deterministic, so equal raw plans yield
// equal optimized plans, equal execution, and — given equal (protected
// table, ε, seed) — byte-identical releases. That makes (Fingerprint(plan),
// protected, ε, seed) a sound release-cache key: serving a cached release
// for a matching key discloses nothing the original release did not. The
// protected relation must ride alongside the fingerprint, not inside it —
// it is a property of the request (whose records the release protects), not
// of the plan, and for multi-table plans it changes the influence set and
// sensitivity of an otherwise identical query.
//
// Scan row *contents* are deliberately excluded — hashing every tuple per
// request would cost more than the query. A fingerprint therefore names a
// query over a dataset version; cache owners must scope keys to one
// workload (the server regenerates its warehouse deterministically from its
// seed, so a process's tables are fixed for its lifetime).
func Fingerprint(p Plan) string {
	h := sha256.New()
	writeFingerprint(h, p)
	return hex.EncodeToString(h.Sum(nil))
}

// writeFingerprint emits the canonical framed encoding of the plan tree.
// Every node writes a distinct tag plus its parameters with explicit
// separators, so no two distinct trees can serialize identically.
func writeFingerprint(w io.Writer, p Plan) {
	switch n := p.(type) {
	case *ScanPlan:
		cols := make([]string, len(n.Cols))
		for i, c := range n.Cols {
			cols[i] = c.Name + ":" + strconv.Itoa(int(c.Kind))
		}
		fmt.Fprintf(w, "scan{%s|%s|%d}", n.Name, strings.Join(cols, ","), n.numRows())
	case *FilterPlan:
		fmt.Fprintf(w, "filter{%s}(", n.Pred.describe())
		writeFingerprint(w, n.Input)
		io.WriteString(w, ")")
	case *ProjectPlan:
		exprs := make([]string, len(n.Exprs))
		for i, ne := range n.Exprs {
			exprs[i] = ne.Name + "=" + ne.Expr.describe()
		}
		fmt.Fprintf(w, "project{%s}(", strings.Join(exprs, ","))
		writeFingerprint(w, n.Input)
		io.WriteString(w, ")")
	case *JoinPlan:
		fmt.Fprintf(w, "join{%s=%s}(", n.LeftKey, n.RightKey)
		writeFingerprint(w, n.Left)
		io.WriteString(w, ",")
		writeFingerprint(w, n.Right)
		io.WriteString(w, ")")
	case *AggregatePlan:
		aggs := make([]string, len(n.Aggs))
		for i, a := range n.Aggs {
			arg := ""
			if a.Arg != nil {
				arg = a.Arg.describe()
			}
			aggs[i] = a.Name + "=" + a.Func.String() + "(" + arg + ")"
		}
		fmt.Fprintf(w, "aggregate{%s|%s}(", strings.Join(n.GroupBy, ","), strings.Join(aggs, ","))
		writeFingerprint(w, n.Input)
		io.WriteString(w, ")")
	case *OrderByPlan:
		keys := make([]string, len(n.Keys))
		for i, k := range n.Keys {
			keys[i] = k.Column
			if k.Desc {
				keys[i] += " desc"
			}
		}
		fmt.Fprintf(w, "orderby{%s}(", strings.Join(keys, ","))
		writeFingerprint(w, n.Input)
		io.WriteString(w, ")")
	case *DistinctPlan:
		io.WriteString(w, "distinct(")
		writeFingerprint(w, n.Input)
		io.WriteString(w, ")")
	case *LimitPlan:
		fmt.Fprintf(w, "limit{%d}(", n.N)
		writeFingerprint(w, n.Input)
		io.WriteString(w, ")")
	default:
		// Unknown node kinds still get a deterministic encoding via their
		// diagnostic rendering, so a future plan type degrades to a correct
		// (if coarser) identity instead of a collision.
		fmt.Fprintf(w, "other{%s}", p.describe())
	}
}

// TableNames returns the sorted, de-duplicated names of every base relation
// the plan scans.
func TableNames(p Plan) []string {
	seen := map[string]bool{}
	var walk func(Plan)
	walk = func(p Plan) {
		switch n := p.(type) {
		case *ScanPlan:
			seen[n.Name] = true
		case *FilterPlan:
			walk(n.Input)
		case *ProjectPlan:
			walk(n.Input)
		case *JoinPlan:
			walk(n.Left)
			walk(n.Right)
		case *AggregatePlan:
			walk(n.Input)
		case *OrderByPlan:
			walk(n.Input)
		case *DistinctPlan:
			walk(n.Input)
		case *LimitPlan:
			walk(n.Input)
		}
	}
	walk(p)
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SupportsDPCount validates that plan lies in the fragment CompileDPCount
// can protect — a global single-Count aggregate (below any Limit/OrderBy)
// over a Filter/Join/Scan interior in which protectedTable appears exactly
// once — WITHOUT executing anything. Admission control calls it before
// charging a tenant's budget, so unsupported plans are rejected with zero ε
// spent and zero engine work.
func SupportsDPCount(plan Plan, protectedTable string) error {
	if !isGlobalCount(plan) {
		return fmt.Errorf("sql: plan is not a global single-count aggregate")
	}
	agg, err := countRootOf(plan)
	if err != nil {
		return err
	}
	if err := checkDPInterior(agg.Input); err != nil {
		return err
	}
	scans := findScans(agg.Input, protectedTable)
	if len(scans) == 0 {
		return fmt.Errorf("sql: protected table %q not found in plan", protectedTable)
	}
	if len(scans) > 1 {
		return fmt.Errorf("sql: protected table %q appears %d times; self-joins on the protected table are not supported", protectedTable, len(scans))
	}
	if _, err := scans[0].Cols.IndexOf(dpIdxCol); err == nil {
		return fmt.Errorf("sql: protected table already has a %s column", dpIdxCol)
	}
	if _, err := plan.Schema(); err != nil {
		return fmt.Errorf("sql: plan does not bind: %w", err)
	}
	return nil
}

// checkDPInterior verifies the subtree under the counting aggregate holds
// only the node kinds tagProtectedScan can rewrite.
func checkDPInterior(plan Plan) error {
	switch p := plan.(type) {
	case *ScanPlan:
		return nil
	case *FilterPlan:
		return checkDPInterior(p.Input)
	case *JoinPlan:
		if err := checkDPInterior(p.Left); err != nil {
			return err
		}
		return checkDPInterior(p.Right)
	default:
		return fmt.Errorf("sql: DP compilation supports Filter/Join/Scan interiors, found %T", plan)
	}
}
