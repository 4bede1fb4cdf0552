package mapreduce

import "fmt"

// Broadcast is a read-only value shipped once to every worker — the
// engine's analogue of Spark's broadcast variables, which UPA's operators
// use for the reduced remaining-records table B(RS') and the sampled set
// B(S) (§V-B). The engine accounts the records shipped so broadcast-heavy
// plans show up in the overhead analysis.
//
// The held value must be treated as immutable by all tasks.
type Broadcast[T any] struct {
	value T
}

// NewBroadcast registers value with the engine, accounting its shipment to
// every worker. records describes the value's cardinality (rows in a lookup
// table); pass 1 for scalars.
func NewBroadcast[T any](eng *Engine, value T, records int) (*Broadcast[T], error) {
	if records < 0 {
		return nil, fmt.Errorf("mapreduce: negative broadcast cardinality %d", records)
	}
	eng.metrics.BroadcastsSent.Add(1)
	eng.metrics.BroadcastRecords.Add(int64(records) * int64(eng.Workers()))
	return &Broadcast[T]{value: value}, nil
}

// Value returns the broadcast value.
func (b *Broadcast[T]) Value() T { return b.value }
