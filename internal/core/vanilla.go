package core

import (
	"fmt"

	"upa/internal/mapreduce"
)

// RunVanilla evaluates q on data through the engine with no DP machinery —
// the "vanilla Spark" baseline every overhead figure normalizes against.
// Like UPA's own S′, the input is read in place, never copied, so data must
// not be mutated while the call is in progress.
func RunVanilla[T any](eng *mapreduce.Engine, q Query[T], data []T) ([]float64, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("core: query %q on empty input", q.Name)
	}
	parts := eng.Workers()
	if parts > len(data) {
		parts = len(data)
	}
	ds, err := mapreduce.FromSliceExcept(eng, data, nil, parts)
	if err != nil {
		return nil, err
	}
	first, step := q.fold()
	state, err := mapreduce.Reduce(mapreduce.MapFold(ds, first, step), q.reducer())
	if err != nil {
		return nil, err
	}
	return q.finalize(state), nil
}
