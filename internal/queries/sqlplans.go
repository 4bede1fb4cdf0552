package queries

import (
	"fmt"

	"upa/internal/sql"
	"upa/internal/tpch"
)

// This file expresses the TPC-H counting queries as relational plans over
// the internal/sql layer (the SparkSQL stand-in). The plans exist for two
// purposes: they cross-validate the hand-written Mapper/Reducer forms the
// DP path executes (see TestSQLPlansMatchMappers), and they feed FLEX's
// static analysis through sql.FLEXPlan, which extracts join-column
// statistics from the plan tree exactly as FLEX's SQL analyzer would.

// Relations holds the TPC-H base relations the canned plans scan. A process
// that runs several plans builds them once (NewRelations) and plans every
// query over the same three scans, so the plans share each relation's rows
// and its columnar image instead of converting the tables once per plan.
type Relations struct {
	Lineitem, Orders, Customer *sql.ScanPlan
}

// NewRelations converts the three tables the canned plans read.
func NewRelations(db *tpch.DB) Relations {
	return Relations{
		Lineitem: LineitemRelation(db),
		Orders:   OrdersRelation(db),
		Customer: CustomerRelation(db),
	}
}

// Plan returns the canned relational plan for a TPC-H query name (tpch1,
// tpch1full, tpch4, tpch6, tpch13) over these relations. A plan reads only
// the relations it scans, so the others may be nil.
func (r Relations) Plan(name string) (sql.Plan, error) {
	switch name {
	case "tpch1":
		return tpch1Plan(r.Lineitem), nil
	case "tpch1full":
		return tpch1FullPlan(r.Lineitem), nil
	case "tpch4":
		return tpch4Plan(r.Orders, r.Lineitem), nil
	case "tpch6":
		return tpch6Plan(r.Lineitem), nil
	case "tpch13":
		return tpch13Plan(r.Customer, r.Orders), nil
	default:
		return nil, fmt.Errorf("queries: no relational plan for %q", name)
	}
}

// PlanByName returns the canned relational plan for a TPC-H query name over
// freshly converted relations, for callers — like upa-query's -explain flag
// — that address plans the way they address Runners. Only the tables the
// plan scans are converted. Any plan it returns executes through
// sql.Optimize when run with sql.Execute.
func PlanByName(db *tpch.DB, name string) (sql.Plan, error) {
	var r Relations
	switch name {
	case "tpch1", "tpch1full", "tpch6":
		r.Lineitem = LineitemRelation(db)
	case "tpch4":
		r.Orders, r.Lineitem = OrdersRelation(db), LineitemRelation(db)
	case "tpch13":
		r.Customer, r.Orders = CustomerRelation(db), OrdersRelation(db)
	}
	return r.Plan(name)
}

// LineitemRelation converts the lineitem table to a relational scan.
func LineitemRelation(db *tpch.DB) *sql.ScanPlan {
	cols := sql.Schema{
		{Name: "l_orderkey", Kind: sql.KindInt},
		{Name: "l_partkey", Kind: sql.KindInt},
		{Name: "l_suppkey", Kind: sql.KindInt},
		{Name: "l_quantity", Kind: sql.KindFloat},
		{Name: "l_extendedprice", Kind: sql.KindFloat},
		{Name: "l_discount", Kind: sql.KindFloat},
		{Name: "l_tax", Kind: sql.KindFloat},
		{Name: "l_returnflag", Kind: sql.KindString},
		{Name: "l_linestatus", Kind: sql.KindString},
		{Name: "l_shipdate", Kind: sql.KindInt},
		{Name: "l_commitdate", Kind: sql.KindInt},
		{Name: "l_receiptdate", Kind: sql.KindInt},
	}
	rows := make([]sql.Row, len(db.Lineitems))
	for i, l := range db.Lineitems {
		rows[i] = sql.Row{
			sql.Int(int64(l.OrderKey)), sql.Int(int64(l.PartKey)), sql.Int(int64(l.SuppKey)),
			sql.Float(l.Quantity), sql.Float(l.ExtendedPrice), sql.Float(l.Discount),
			sql.Float(l.Tax), sql.Str(l.ReturnFlag), sql.Str(l.LineStatus),
			sql.Int(int64(l.ShipDate)), sql.Int(int64(l.CommitDate)), sql.Int(int64(l.ReceiptDate)),
		}
	}
	return sql.Scan("lineitem", cols, rows)
}

// OrdersRelation converts the orders table to a relational scan.
func OrdersRelation(db *tpch.DB) *sql.ScanPlan {
	cols := sql.Schema{
		{Name: "o_orderkey", Kind: sql.KindInt},
		{Name: "o_custkey", Kind: sql.KindInt},
		{Name: "o_orderdate", Kind: sql.KindInt},
		{Name: "o_orderstatus", Kind: sql.KindString},
		{Name: "o_special", Kind: sql.KindBool},
	}
	rows := make([]sql.Row, len(db.Orders))
	for i, o := range db.Orders {
		rows[i] = sql.Row{
			sql.Int(int64(o.OrderKey)), sql.Int(int64(o.CustKey)),
			sql.Int(int64(o.OrderDate)), sql.Str(o.OrderStatus), sql.Bool(o.SpecialRequest),
		}
	}
	return sql.Scan("orders", cols, rows)
}

// CustomerRelation converts the customer table to a relational scan.
func CustomerRelation(db *tpch.DB) *sql.ScanPlan {
	cols := sql.Schema{
		{Name: "c_custkey", Kind: sql.KindInt},
		{Name: "c_nationkey", Kind: sql.KindInt},
	}
	rows := make([]sql.Row, len(db.Customers))
	for i, c := range db.Customers {
		rows[i] = sql.Row{sql.Int(int64(c.CustKey)), sql.Int(int64(c.NationKey))}
	}
	return sql.Scan("customer", cols, rows)
}

// TPCH1Plan is Q1's counting form as a relational plan:
// SELECT count(*) FROM lineitem WHERE l_shipdate <= cutoff.
func TPCH1Plan(db *tpch.DB) sql.Plan { return tpch1Plan(LineitemRelation(db)) }

func tpch1Plan(lineitem *sql.ScanPlan) sql.Plan {
	return sql.GroupBy(
		sql.Where(lineitem,
			sql.Le(sql.Col("l_shipdate"), sql.Lit(sql.Int(int64(tpch1Cutoff))))),
		nil,
		sql.AggSpec{Name: "count_order", Func: sql.AggCount},
	)
}

// TPCH1FullPlan is the complete TPC-H Q1 pricing summary: the grouped,
// multi-aggregate, ordered form (the paper's evaluation uses the counting
// reduction of Q1; this plan exists to exercise — and regression-test — the
// SQL layer on the query's real shape).
//
//	SELECT l_returnflag, l_linestatus,
//	       sum(l_quantity), sum(l_extendedprice),
//	       sum(l_extendedprice*(1-l_discount)),
//	       sum(l_extendedprice*(1-l_discount)*(1+l_tax)),
//	       avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*)
//	FROM lineitem WHERE l_shipdate <= cutoff
//	GROUP BY l_returnflag, l_linestatus
//	ORDER BY l_returnflag, l_linestatus
func TPCH1FullPlan(db *tpch.DB) sql.Plan { return tpch1FullPlan(LineitemRelation(db)) }

func tpch1FullPlan(lineitem *sql.ScanPlan) sql.Plan {
	one := sql.Lit(sql.Float(1))
	discounted := sql.Mul(sql.Col("l_extendedprice"), sql.Sub(one, sql.Col("l_discount")))
	charged := sql.Mul(discounted, sql.Add(one, sql.Col("l_tax")))
	grouped := sql.GroupBy(
		sql.Where(lineitem,
			sql.Le(sql.Col("l_shipdate"), sql.Lit(sql.Int(int64(tpch1Cutoff))))),
		[]string{"l_returnflag", "l_linestatus"},
		sql.AggSpec{Name: "sum_qty", Func: sql.AggSum, Arg: sql.Col("l_quantity")},
		sql.AggSpec{Name: "sum_base_price", Func: sql.AggSum, Arg: sql.Col("l_extendedprice")},
		sql.AggSpec{Name: "sum_disc_price", Func: sql.AggSum, Arg: discounted},
		sql.AggSpec{Name: "sum_charge", Func: sql.AggSum, Arg: charged},
		sql.AggSpec{Name: "avg_qty", Func: sql.AggAvg, Arg: sql.Col("l_quantity")},
		sql.AggSpec{Name: "avg_price", Func: sql.AggAvg, Arg: sql.Col("l_extendedprice")},
		sql.AggSpec{Name: "avg_disc", Func: sql.AggAvg, Arg: sql.Col("l_discount")},
		sql.AggSpec{Name: "count_order", Func: sql.AggCount},
	)
	return sql.OrderBy(grouped,
		sql.SortKey{Column: "l_returnflag"},
		sql.SortKey{Column: "l_linestatus"},
	)
}

// TPCH4Plan is Q4's counting form as a relational plan:
// SELECT count(*) FROM orders JOIN lineitem ON o_orderkey = l_orderkey
// WHERE o_orderdate in window AND l_commitdate < l_receiptdate.
func TPCH4Plan(db *tpch.DB) sql.Plan {
	return tpch4Plan(OrdersRelation(db), LineitemRelation(db))
}

func tpch4Plan(orders, lineitem *sql.ScanPlan) sql.Plan {
	joined := sql.JoinOn(orders, "o_orderkey", lineitem, "l_orderkey")
	filtered := sql.Where(joined, sql.And(
		sql.And(
			sql.Ge(sql.Col("o_orderdate"), sql.Lit(sql.Int(int64(tpch4WindowLo)))),
			sql.Lt(sql.Col("o_orderdate"), sql.Lit(sql.Int(int64(tpch4WindowHi)))),
		),
		sql.Lt(sql.Col("l_commitdate"), sql.Col("l_receiptdate")),
	))
	return sql.GroupBy(filtered, nil, sql.AggSpec{Name: "order_count", Func: sql.AggCount})
}

// TPCH13Plan is Q13's counting form as a relational plan:
// SELECT count(*) FROM customer JOIN orders ON c_custkey = o_custkey
// WHERE NOT o_special.
func TPCH13Plan(db *tpch.DB) sql.Plan {
	return tpch13Plan(CustomerRelation(db), OrdersRelation(db))
}

func tpch13Plan(customer, orders *sql.ScanPlan) sql.Plan {
	joined := sql.JoinOn(customer, "c_custkey", orders, "o_custkey")
	filtered := sql.Where(joined, sql.Not(sql.Col("o_special")))
	return sql.GroupBy(filtered, nil, sql.AggSpec{Name: "pair_count", Func: sql.AggCount})
}

// TPCH6Plan is Q6 as a relational plan (arithmetic — outside FLEX's
// fragment): SELECT sum(l_extendedprice * l_discount) FROM lineitem WHERE
// the year/discount/quantity filters hold.
func TPCH6Plan(db *tpch.DB) sql.Plan { return tpch6Plan(LineitemRelation(db)) }

func tpch6Plan(lineitem *sql.ScanPlan) sql.Plan {
	filtered := sql.Where(lineitem, sql.And(
		sql.And(
			sql.Ge(sql.Col("l_shipdate"), sql.Lit(sql.Int(int64(tpch6YearLo)))),
			sql.Lt(sql.Col("l_shipdate"), sql.Lit(sql.Int(int64(tpch6YearHi)))),
		),
		sql.And(
			sql.And(
				sql.Ge(sql.Col("l_discount"), sql.Lit(sql.Float(tpch6DiscountLo-1e-9))),
				sql.Le(sql.Col("l_discount"), sql.Lit(sql.Float(tpch6DiscountHi+1e-9))),
			),
			sql.Lt(sql.Col("l_quantity"), sql.Lit(sql.Float(tpch6QtyMax))),
		),
	))
	return sql.GroupBy(filtered, nil, sql.AggSpec{
		Name: "revenue", Func: sql.AggSum,
		Arg: sql.Mul(sql.Col("l_extendedprice"), sql.Col("l_discount")),
	})
}
