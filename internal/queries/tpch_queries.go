package queries

import (
	"strings"

	"upa/internal/core"
	"upa/internal/flex"
	"upa/internal/mapreduce"
	"upa/internal/relation"
	"upa/internal/stats"
	"upa/internal/tpch"
)

// Query parameters, fixed as in the TPC-H specification (scaled to the
// synthetic date domain).
const (
	tpch1Cutoff     = tpch.Date(tpch.DateMax - 90)    // l_shipdate <= date '1998-12-01' - 90 days
	tpch4WindowLo   = tpch.Date(2 * tpch.DaysPerYear) // o_orderdate >= '1994-01-01' (scaled)
	tpch4WindowHi   = tpch4WindowLo + 90              // ... + 3 months
	tpch6YearLo     = tpch.Date(2 * tpch.DaysPerYear)
	tpch6YearHi     = tpch6YearLo + tpch.DaysPerYear
	tpch6DiscountLo = 0.05
	tpch6DiscountHi = 0.07
	tpch6QtyMax     = 24
	tpch11Nation    = "GERMANY"
	tpch16Brand     = "Brand#45"
	tpch16TypePre   = "MEDIUM POLISHED"
	tpch21Nation    = "SAUDI ARABIA"
)

var tpch16Sizes = map[int]bool{49: true, 14: true, 23: true, 45: true, 19: true, 3: true, 36: true, 9: true}

// countState wraps a 0/1 (or fan-out) contribution as a one-dimensional
// state.
func countState(v float64) core.State { return core.State{v} }

// TPCH1 is TPC-H Q1 as evaluated in the paper (Count): the number of
// lineitems shipped by the cutoff date. No joins; FLEX infers the exact
// sensitivity of 1 for it (§VI-B).
func (w *Workload) TPCH1() Runner {
	db := w.DB
	return &runner[tpch.Lineitem]{
		name: "TPCH1",
		kind: KindCount,
		size: len(db.Lineitems),
		bind: func(*mapreduce.Engine) (core.Query[tpch.Lineitem], []tpch.Lineitem, func(*stats.RNG) tpch.Lineitem, error) {
			q := core.Query[tpch.Lineitem]{
				Name:      "TPCH1",
				StateDim:  1,
				OutputDim: 1,
				Map: func(l tpch.Lineitem) core.State {
					if l.ShipDate <= tpch1Cutoff {
						return countState(1)
					}
					return countState(0)
				},
			}
			return q, db.Lineitems, db.RandomLineitem, nil
		},
		plan: func() flex.Plan {
			return flex.Plan{Name: "TPCH1", CountQuery: true}
		},
	}
}

// TPCH4 (Count, one Join): the number of (order, lineitem) joined pairs
// where the order falls in a three-month window and the lineitem was
// received after its commit date. The protected table is orders; removing
// an order removes its whole join fan-out, which is what FLEX bounds by the
// worst-case key-frequency product.
func (w *Workload) TPCH4() Runner {
	db := w.DB
	return &runner[tpch.Order]{
		name:  "TPCH4",
		kind:  KindCount,
		size:  len(db.Orders),
		joins: 1,
		bind: func(eng *mapreduce.Engine) (core.Query[tpch.Order], []tpch.Order, func(*stats.RNG) tpch.Order, error) {
			// Broadcast: per-order count of late lineitems (one shuffle).
			late, err := countByKey(eng, db.Lineitems,
				func(l tpch.Lineitem) int { return l.OrderKey },
				func(l tpch.Lineitem) bool { return l.CommitDate < l.ReceiptDate })
			if err != nil {
				return core.Query[tpch.Order]{}, nil, nil, err
			}
			q := core.Query[tpch.Order]{
				Name:      "TPCH4",
				StateDim:  1,
				OutputDim: 1,
				Map: func(o tpch.Order) core.State {
					if o.OrderDate >= tpch4WindowLo && o.OrderDate < tpch4WindowHi {
						return countState(late[o.OrderKey])
					}
					return countState(0)
				},
			}
			return q, db.Orders, db.RandomOrder, nil
		},
		plan: func() flex.Plan {
			ordersKey := relation.StatsOf(db.Orders, func(o tpch.Order) int { return o.OrderKey })
			lineKey := relation.StatsOf(db.Lineitems, func(l tpch.Lineitem) int { return l.OrderKey })
			return flex.Plan{
				Name:       "TPCH4",
				CountQuery: true,
				Joins:      []flex.Join{{Left: ordersKey, Right: lineKey}},
			}
		},
	}
}

// TPCH13 (Count, one Join): the number of (customer, order) joined pairs
// whose order comment is not a special request. Every order matches exactly
// one customer, so the true per-record influence is 1 — while FLEX multiplies
// the customer-key frequencies and overestimates by the key skew.
func (w *Workload) TPCH13() Runner {
	db := w.DB
	return &runner[tpch.Order]{
		name:  "TPCH13",
		kind:  KindCount,
		size:  len(db.Orders),
		joins: 1,
		bind: func(eng *mapreduce.Engine) (core.Query[tpch.Order], []tpch.Order, func(*stats.RNG) tpch.Order, error) {
			customers, err := countByKey(eng, db.Customers, func(c tpch.Customer) int { return c.CustKey }, nil)
			if err != nil {
				return core.Query[tpch.Order]{}, nil, nil, err
			}
			q := core.Query[tpch.Order]{
				Name:      "TPCH13",
				StateDim:  1,
				OutputDim: 1,
				Map: func(o tpch.Order) core.State {
					if !o.SpecialRequest && customers[o.CustKey] > 0 {
						return countState(1)
					}
					return countState(0)
				},
			}
			return q, db.Orders, db.RandomOrder, nil
		},
		plan: func() flex.Plan {
			custKey := relation.StatsOf(db.Customers, func(c tpch.Customer) int { return c.CustKey })
			orderCust := relation.StatsOf(db.Orders, func(o tpch.Order) int { return o.CustKey })
			return flex.Plan{
				Name:       "TPCH13",
				CountQuery: true,
				Joins:      []flex.Join{{Left: custKey, Right: orderCust}},
			}
		},
	}
}

// TPCH16 (Count, two Joins): the number of partsupp rows whose part passes
// the brand/type/size filters and whose supplier has no complaints. Each
// partsupp row contributes at most one to the count, so the true local
// sensitivity is 1 — FLEX multiplies two worst-case join fan-outs instead
// (the error-magnification case of §II-B).
func (w *Workload) TPCH16() Runner {
	db := w.DB
	return &runner[tpch.PartSupp]{
		name:  "TPCH16",
		kind:  KindCount,
		size:  len(db.PartSupps),
		joins: 2,
		bind: func(eng *mapreduce.Engine) (core.Query[tpch.PartSupp], []tpch.PartSupp, func(*stats.RNG) tpch.PartSupp, error) {
			goodParts, err := countByKey(eng, db.Parts,
				func(p tpch.Part) int { return p.PartKey },
				func(p tpch.Part) bool {
					return p.Brand != tpch16Brand &&
						!strings.HasPrefix(p.Type, tpch16TypePre) &&
						tpch16Sizes[p.Size]
				})
			if err != nil {
				return core.Query[tpch.PartSupp]{}, nil, nil, err
			}
			goodSupp, err := countByKey(eng, db.Suppliers,
				func(s tpch.Supplier) int { return s.SuppKey },
				func(s tpch.Supplier) bool { return !s.Complaint })
			if err != nil {
				return core.Query[tpch.PartSupp]{}, nil, nil, err
			}
			q := core.Query[tpch.PartSupp]{
				Name:      "TPCH16",
				StateDim:  1,
				OutputDim: 1,
				Map: func(ps tpch.PartSupp) core.State {
					if goodParts[ps.PartKey] > 0 && goodSupp[ps.SuppKey] > 0 {
						return countState(1)
					}
					return countState(0)
				},
			}
			return q, db.PartSupps, db.RandomPartSupp, nil
		},
		plan: func() flex.Plan {
			psPart := relation.StatsOf(db.PartSupps, func(ps tpch.PartSupp) int { return ps.PartKey })
			partKey := relation.StatsOf(db.Parts, func(p tpch.Part) int { return p.PartKey })
			psSupp := relation.StatsOf(db.PartSupps, func(ps tpch.PartSupp) int { return ps.SuppKey })
			suppKey := relation.StatsOf(db.Suppliers, func(s tpch.Supplier) int { return s.SuppKey })
			return flex.Plan{
				Name:       "TPCH16",
				CountQuery: true,
				Joins: []flex.Join{
					{Left: psPart, Right: partKey},
					{Left: psSupp, Right: suppKey},
				},
			}
		},
	}
}

// TPCH21 (Count, five Joins and three Filters): for each lineitem received
// late, from a supplier of the target nation, on a finished order, count the
// other-supplier lineitems of the same order (the exists clause of Q21 as a
// self-join fan-out). Per-record influence varies from 0 to the largest
// order's width, giving the wide, outlier-heavy neighbouring-output
// distribution of Figure 3 — and FLEX's five-way worst-case product its
// six-orders-of-magnitude error.
func (w *Workload) TPCH21() Runner {
	db := w.DB
	return &runner[tpch.Lineitem]{
		name:  "TPCH21",
		kind:  KindCount,
		size:  len(db.Lineitems),
		joins: 5,
		bind: func(eng *mapreduce.Engine) (core.Query[tpch.Lineitem], []tpch.Lineitem, func(*stats.RNG) tpch.Lineitem, error) {
			nationKey := -1
			for _, n := range db.Nations {
				if n.Name == tpch21Nation {
					nationKey = n.NationKey
					break
				}
			}
			suppInNation, err := countByKey(eng, db.Suppliers,
				func(s tpch.Supplier) int { return s.SuppKey },
				func(s tpch.Supplier) bool { return s.NationKey == nationKey })
			if err != nil {
				return core.Query[tpch.Lineitem]{}, nil, nil, err
			}
			finishedOrders, err := countByKey(eng, db.Orders,
				func(o tpch.Order) int { return o.OrderKey },
				func(o tpch.Order) bool { return o.OrderStatus == "F" })
			if err != nil {
				return core.Query[tpch.Lineitem]{}, nil, nil, err
			}
			// Self-join broadcast: per order, total lineitems and per
			// (order, supplier) lineitems; other-supplier fan-out is their
			// difference.
			perOrder, err := countByKey(eng, db.Lineitems,
				func(l tpch.Lineitem) int { return l.OrderKey },
				nil)
			if err != nil {
				return core.Query[tpch.Lineitem]{}, nil, nil, err
			}
			perOrderSupp, err := countByKey(eng, db.Lineitems,
				func(l tpch.Lineitem) [2]int { return [2]int{l.OrderKey, l.SuppKey} },
				nil)
			if err != nil {
				return core.Query[tpch.Lineitem]{}, nil, nil, err
			}
			q := core.Query[tpch.Lineitem]{
				Name:      "TPCH21",
				StateDim:  1,
				OutputDim: 1,
				Map: func(l tpch.Lineitem) core.State {
					if l.ReceiptDate <= l.CommitDate || // filter 1
						suppInNation[l.SuppKey] == 0 || // filter 2 (after joins)
						finishedOrders[l.OrderKey] == 0 { // filter 3
						return countState(0)
					}
					others := perOrder[l.OrderKey] - perOrderSupp[[2]int{l.OrderKey, l.SuppKey}]
					return countState(others)
				},
			}
			return q, db.Lineitems, db.RandomLineitem, nil
		},
		plan: func() flex.Plan {
			nationStats := relation.ColumnStats{RowCount: len(db.Nations), Distinct: len(db.Nations), MaxFreq: 1}
			suppNation := relation.StatsOf(db.Suppliers, func(s tpch.Supplier) int { return s.NationKey })
			suppKey := relation.StatsOf(db.Suppliers, func(s tpch.Supplier) int { return s.SuppKey })
			lineSupp := relation.StatsOf(db.Lineitems, func(l tpch.Lineitem) int { return l.SuppKey })
			lineOrder := relation.StatsOf(db.Lineitems, func(l tpch.Lineitem) int { return l.OrderKey })
			orderKey := relation.StatsOf(db.Orders, func(o tpch.Order) int { return o.OrderKey })
			return flex.Plan{
				Name:       "TPCH21",
				CountQuery: true,
				Joins: []flex.Join{
					{Left: nationStats, Right: suppNation}, // nation ⋈ supplier
					{Left: suppKey, Right: lineSupp},       // supplier ⋈ lineitem l1
					{Left: lineOrder, Right: orderKey},     // l1 ⋈ orders
					{Left: lineOrder, Right: lineOrder},    // l1 ⋈ l2 (exists)
					{Left: lineOrder, Right: lineOrder},    // l1 ⋈ l3 (not exists)
				},
			}
		},
	}
}

// TPCH6 (Arithmetic, unsupported by FLEX): the forecast-revenue query —
// sum(extendedprice * discount) over a one-year shipping window, a discount
// band, and a quantity cap.
func (w *Workload) TPCH6() Runner {
	db := w.DB
	return &runner[tpch.Lineitem]{
		name: "TPCH6",
		kind: KindArithmetic,
		size: len(db.Lineitems),
		bind: func(*mapreduce.Engine) (core.Query[tpch.Lineitem], []tpch.Lineitem, func(*stats.RNG) tpch.Lineitem, error) {
			q := core.Query[tpch.Lineitem]{
				Name:      "TPCH6",
				StateDim:  1,
				OutputDim: 1,
				Map: func(l tpch.Lineitem) core.State {
					if l.ShipDate >= tpch6YearLo && l.ShipDate < tpch6YearHi &&
						l.Discount >= tpch6DiscountLo-1e-9 && l.Discount <= tpch6DiscountHi+1e-9 &&
						l.Quantity < tpch6QtyMax {
						return countState(l.ExtendedPrice * l.Discount)
					}
					return countState(0)
				},
			}
			return q, db.Lineitems, db.RandomLineitem, nil
		},
		plan: unsupportedPlan("TPCH6"),
	}
}

// TPCH11 (Arithmetic, one Join, unsupported by FLEX): the important-stock
// query — sum(supplycost * availqty) over partsupp rows whose supplier sits
// in the target nation.
func (w *Workload) TPCH11() Runner {
	db := w.DB
	return &runner[tpch.PartSupp]{
		name:  "TPCH11",
		kind:  KindArithmetic,
		size:  len(db.PartSupps),
		joins: 1,
		bind: func(eng *mapreduce.Engine) (core.Query[tpch.PartSupp], []tpch.PartSupp, func(*stats.RNG) tpch.PartSupp, error) {
			nationKey := -1
			for _, n := range db.Nations {
				if n.Name == tpch11Nation {
					nationKey = n.NationKey
					break
				}
			}
			inNation, err := countByKey(eng, db.Suppliers,
				func(s tpch.Supplier) int { return s.SuppKey },
				func(s tpch.Supplier) bool { return s.NationKey == nationKey })
			if err != nil {
				return core.Query[tpch.PartSupp]{}, nil, nil, err
			}
			q := core.Query[tpch.PartSupp]{
				Name:      "TPCH11",
				StateDim:  1,
				OutputDim: 1,
				Map: func(ps tpch.PartSupp) core.State {
					if inNation[ps.SuppKey] > 0 {
						return countState(ps.SupplyCost * float64(ps.AvailQty))
					}
					return countState(0)
				},
			}
			return q, db.PartSupps, db.RandomPartSupp, nil
		},
		plan: unsupportedPlan("TPCH11"),
	}
}

// countByKey counts the records passing keep (all records when keep is nil)
// per key and broadcasts the counts as a lookup table. Each partition counts
// its share of records in place into its own map, and the driver merges the
// maps in partition order. Moving the per-partition counts to the driver is
// metered as one shuffle of their distinct keys — the records a map-side
// combined ReduceByKey would ship — and the table as one broadcast.
func countByKey[T any, K comparable](eng *mapreduce.Engine, records []T, key func(T) K, keep func(T) bool) (map[K]float64, error) {
	ds, err := mapreduce.FromSliceExcept(eng, records, nil, min(eng.Workers(), len(records)))
	if err != nil {
		return nil, err
	}
	counted, err := mapreduce.MapPartitions(ds, func(_ int, in []T) ([]map[K]float64, error) {
		m := make(map[K]float64)
		for _, r := range in {
			if keep == nil || keep(r) {
				m[key(r)]++
			}
		}
		return []map[K]float64{m}, nil
	}).Collect()
	if err != nil {
		return nil, err
	}
	out, shuffled := counted[0], len(counted[0])
	for _, m := range counted[1:] {
		shuffled += len(m)
		for k, c := range m {
			out[k] += c
		}
	}
	eng.AccountShuffle(shuffled)
	// The lookup table ships to every worker as a broadcast variable, the
	// §V-B evaluation strategy; registering it meters the shipment.
	b, err := mapreduce.NewBroadcast(eng, out, len(out))
	if err != nil {
		return nil, err
	}
	return b.Value(), nil
}
