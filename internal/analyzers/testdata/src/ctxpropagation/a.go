// Package ctxpropagation is golden-test input for the ctxpropagation
// analyzer, loaded under the synthetic internal import path
// "upa/internal/fake".
package ctxpropagation

import "context"

type Dataset struct{}

func (d *Dataset) Collect() ([]int, error)                       { return nil, nil }
func (d *Dataset) CollectCtx(ctx context.Context) ([]int, error) { return nil, nil }
func (d *Dataset) Count() (int, error)                           { return 0, nil }
func (d *Dataset) CountCtx(ctx context.Context) (int, error)     { return 0, nil }
func ReduceByKey(d *Dataset, f func(int, int) int) *Dataset      { return d }
func ReduceByKeyCtx(ctx context.Context, d *Dataset, f func(int, int) int) *Dataset {
	return d
}

type Graph struct{}

func (g *Graph) Run(ctx context.Context) error { return nil }

// withCtx has a context in scope: non-Ctx variants are violations.
func withCtx(ctx context.Context, d *Dataset) error {
	if _, err := d.Collect(); err != nil { // want `call to Collect ignores the context.Context ctx in scope; use CollectCtx`
		return err
	}
	_ = ReduceByKey(d, func(a, b int) int { return a + b }) // want `call to ReduceByKey ignores the context.Context ctx`
	if _, err := d.CollectCtx(ctx); err != nil {            // threading ctx: fine
		return err
	}
	// A callee that shares a variant name but is already handed the context
	// is not a violation (jobgraph's Graph.Run takes ctx positionally).
	var g Graph
	return g.Run(ctx)
}

// closures inherit the obligation from the enclosing ctx-taking function.
func inClosure(ctx context.Context, d *Dataset) func() error {
	return func() error {
		_, err := d.Count() // want `call to Count ignores the context.Context ctx in scope; use CountCtx`
		return err
	}
}

// withoutCtx has no context parameter: non-Ctx variants are the caller's
// choice, not a propagation failure.
func withoutCtx(d *Dataset) error {
	_, err := d.Collect()
	return err
}

// background mints root contexts inside internal code.
func background(d *Dataset) error {
	_, err := d.CollectCtx(context.Background()) // want `context.Background\(\) in internal package upa/internal/fake severs the cancellation chain`
	if err != nil {
		return err
	}
	_, err = d.CollectCtx(context.TODO()) // want `context.TODO\(\) in internal package`
	return err
}

// Convenience wrappers at a public API boundary annotate the root context.
func blessedWrapper(d *Dataset) ([]int, error) {
	//upa:allow(ctxpropagation) public convenience wrapper: callers without a context land here
	return d.CollectCtx(context.Background())
}

// A ctx variable shadowing something unrelated does not satisfy the check.
func shadowed(d *Dataset) {
	ctx := 7 // not a context.Context
	_ = ctx
	_, _ = d.Collect() // no ctx param in scope: fine
}
