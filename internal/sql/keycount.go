package sql

import (
	"fmt"
	"math"

	"upa/internal/colbatch"
	"upa/internal/mapreduce"
)

// keycount.go is the DP bridge's counting strategy: the influence of a
// protected row is the number of join answers it takes part in, and over a
// tree of single-key equi-joins that number factorizes into per-key counts
// passed from the leaves toward the protected relation (Yannakakis, "Algorithms
// for acyclic database schemes", VLDB 1981) — FLEX's max-frequency product
// made exact per record. No join is materialized: every relation is read once
// from its resident image, and the only state is one key→count map per
// non-protected relation and the protected relation's []int64 tally.
//
// Eligibility is decided from the optimized influence plan's shape and
// schemas alone, never from the data (see keyCountPlan). Anything else — a
// filter spanning both sides of a join, a float or bool key, an ambiguous
// column name — runs through tallyInfluence, which materializes the join.

// keyCount is an eligible influence plan as a tree of leaves rooted at the
// protected one. leaves is in post-order: every leaf comes after all of its
// children, so the protected leaf is last.
type keyCount struct {
	leaves []countLeaf
	// idx is the hidden index column's position in the protected leaf.
	idx int
}

// countLeaf is one relation of the join tree: a Filter chain over a scan.
type countLeaf struct {
	plan   Plan
	schema Schema
	// key is the column joined toward the parent, -1 for the protected leaf.
	key int
	// kids are the leaf's children, each probed with one of its columns.
	kids []countEdge
}

// countEdge joins column col of a leaf to the key of child leaf leaf.
type countEdge struct{ col, leaf int }

// keyCountPlan reports whether the influence plan — GROUP BY __protected_idx,
// COUNT(*) over an optimized interior — can be counted per key, and if so
// returns its join tree. The interior must consist of Joins, rename-only
// Projects (the optimizer's join swaps and reorders insert them) and leaves
// that are vectorizable Filter chains over one scan; every join key and the
// hidden index column must resolve to exactly one leaf; and both keys of a
// join must be KindInt or both KindString, whose equality is exact on the
// image. Only schemas are read.
func keyCountPlan(plan Plan) (*keyCount, bool) {
	agg, ok := plan.(*AggregatePlan)
	if !ok {
		return nil, false
	}
	var leaves []countLeaf
	type edge struct{ a, acol, b, bcol int }
	var edges []edge
	// resolve finds the one leaf among candidates whose schema has name.
	resolve := func(candidates []int, name string) (leaf, col int, ok bool) {
		found := 0
		for _, li := range candidates {
			if i, err := leaves[li].schema.IndexOf(name); err == nil {
				leaf, col = li, i
				found++
			}
		}
		return leaf, col, found == 1
	}
	var walk func(Plan) ([]int, bool)
	walk = func(p Plan) ([]int, bool) {
		switch n := p.(type) {
		case *JoinPlan:
			ls, ok := walk(n.Left)
			if !ok {
				return nil, false
			}
			rs, ok := walk(n.Right)
			if !ok {
				return nil, false
			}
			a, acol, ok := resolve(ls, n.LeftKey)
			if !ok {
				return nil, false
			}
			b, bcol, ok := resolve(rs, n.RightKey)
			if !ok {
				return nil, false
			}
			kind := leaves[a].schema[acol].Kind
			if (kind != KindInt && kind != KindString) || leaves[b].schema[bcol].Kind != kind {
				return nil, false
			}
			edges = append(edges, edge{a, acol, b, bcol})
			return append(ls, rs...), true
		case *ProjectPlan:
			for _, ne := range n.Exprs {
				if c, ok := ne.Expr.(colExpr); !ok || c.name != ne.Name {
					return nil, false
				}
			}
			return walk(n.Input)
		}
		if !filterChain(p) || !vectorizableChain(p) {
			return nil, false
		}
		schema, err := p.Schema()
		if err != nil {
			return nil, false
		}
		leaves = append(leaves, countLeaf{plan: p, schema: schema, key: -1})
		return []int{len(leaves) - 1}, true
	}
	all, ok := walk(agg.Input)
	if !ok {
		return nil, false
	}
	root, idx, ok := resolve(all, dpIdxCol)
	if !ok || leaves[root].schema[idx].Kind != KindInt {
		return nil, false
	}

	// Each join merged two disjoint leaf sets, so the edges form a tree over
	// the leaves. Orient it away from the protected leaf, children first.
	adj := make([][]edge, len(leaves))
	for _, e := range edges {
		adj[e.a] = append(adj[e.a], e)
		adj[e.b] = append(adj[e.b], edge{e.b, e.bcol, e.a, e.acol})
	}
	kc := &keyCount{idx: idx}
	var visit func(li, parent, key int) int
	visit = func(li, parent, key int) int {
		leaf := leaves[li]
		leaf.key = key
		for _, e := range adj[li] {
			if e.b != parent {
				leaf.kids = append(leaf.kids, countEdge{col: e.acol, leaf: visit(e.b, li, e.bcol)})
			}
		}
		kc.leaves = append(kc.leaves, leaf)
		return len(kc.leaves) - 1
	}
	visit(root, -1, -1)
	return kc, true
}

// filterChain reports whether p is zero or more Filters over a scan.
func filterChain(p Plan) bool {
	for {
		switch n := p.(type) {
		case *ScanPlan:
			return true
		case *FilterPlan:
			p = n.Input
		default:
			return false
		}
	}
}

// keyCounts maps a join key to the number of answers of the subtree below
// it that carry that key: one typed map, by the key's kind.
type keyCounts struct {
	ints map[int64]int64
	strs map[string]int64
}

func newKeyCounts() keyCounts {
	return keyCounts{ints: map[int64]int64{}, strs: map[string]int64{}}
}

func (m keyCounts) get(c colbatch.Col, lane int) int64 {
	if c.Kind == colbatch.Int64 {
		return m.ints[c.I64[lane]]
	}
	return m.strs[c.Str[lane]]
}

func (m keyCounts) add(c colbatch.Col, lane int, w int64) {
	if c.Kind == colbatch.Int64 {
		k := c.I64[lane]
		m.ints[k] = satAdd(m.ints[k], w)
		return
	}
	k := c.Str[lane]
	m.strs[k] = satAdd(m.strs[k], w)
}

// inc adds one to the key's count. A pass that only ever adds one counts at
// most its rows per key, so it cannot overflow.
func (m keyCounts) inc(c colbatch.Col, lane int) {
	if c.Kind == colbatch.Int64 {
		m.ints[c.I64[lane]]++
		return
	}
	m.strs[c.Str[lane]]++
}

func (m keyCounts) merge(o keyCounts) {
	for k, w := range o.ints {
		m.ints[k] = satAdd(m.ints[k], w)
	}
	for k, w := range o.strs {
		m.strs[k] = satAdd(m.strs[k], w)
	}
}

// satAdd and satMul are addition and multiplication of non-negative counts
// that saturate at math.MaxInt64 instead of wrapping.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// tallyAdd adds w to the tally of protected row i. The hidden column holds
// row positions by construction; the range check only turns a same-named
// column of another table into an error instead of an index panic inside a
// task.
func tallyAdd(tally []int64, i, w int64) error {
	if i < 0 || i >= int64(len(tally)) {
		return fmt.Errorf("sql: influence key %d is not a row of the protected table (%d rows)", i, len(tally))
	}
	tally[i] = satAdd(tally[i], w)
	return nil
}

// countInfluence runs the join tree leaf by leaf, children first. A row of a
// leaf that passes its filters weighs the product of its children's counts
// at its probe columns; a non-protected leaf sums the weights per parent key
// into its message, and the protected leaf adds them into the tally at the
// row's hidden index. Each pass is one engine task per scan slot returning
// its own partial, merged by the driver, so a retried task counts nothing
// twice; nothing is materialized in the engine.
func (c *compiler) countInfluence(kc *keyCount, n int) ([]int64, error) {
	msgs := make([]keyCounts, len(kc.leaves))
	weight := func(kids []countEdge, b *colbatch.Batch, lane int) int64 {
		w := int64(1)
		for _, e := range kids {
			if w = satMul(w, msgs[e.leaf].get(b.Cols[e.col], lane)); w == 0 {
				break
			}
		}
		return w
	}
	last := len(kc.leaves) - 1
	for li, leaf := range kc.leaves[:last] {
		add := func(m keyCounts, b *colbatch.Batch, lane int) error {
			if w := weight(leaf.kids, b, lane); w > 0 {
				m.add(b.Cols[leaf.key], lane, w)
			}
			return nil
		}
		if len(leaf.kids) == 0 {
			add = func(m keyCounts, b *colbatch.Batch, lane int) error {
				m.inc(b.Cols[leaf.key], lane)
				return nil
			}
		}
		partials, err := leafPass(c, leaf.plan, newKeyCounts, add)
		if err != nil {
			return nil, err
		}
		msgs[li] = partials[0]
		for _, p := range partials[1:] {
			msgs[li].merge(p)
		}
	}
	protected := kc.leaves[last]
	partials, err := leafPass(c, protected.plan, func() []int64 { return make([]int64, n) }, func(tally []int64, b *colbatch.Batch, lane int) error {
		if w := weight(protected.kids, b, lane); w > 0 {
			return tallyAdd(tally, b.Cols[kc.idx].I64[lane], w)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	influence := partials[0]
	for _, p := range partials[1:] {
		for i, w := range p {
			influence[i] = satAdd(influence[i], w)
		}
	}
	return influence, nil
}

// leafPass runs add over every surviving row of a leaf, one engine task per
// scan slot, each into its own accumulator from fresh, and returns the
// accumulators.
func leafPass[A any](c *compiler, leaf Plan, fresh func() A, add func(A, *colbatch.Batch, int) error) ([]A, error) {
	scan, ops, err := buildColumnarOps(leaf)
	if err != nil {
		return nil, err
	}
	src, err := c.openScan(scan)
	if err != nil {
		return nil, err
	}
	return mapreduce.MapPartitions(src.slots, func(p int, _ []struct{}) ([]A, error) {
		acc := fresh()
		var err error
		src.run(p, ops, func(b *colbatch.Batch) {
			b.ForSel(func(lane int) {
				if aerr := add(acc, b, lane); aerr != nil {
					err = aerr
				}
			})
		})
		return []A{acc}, err
	}).Collect()
}
