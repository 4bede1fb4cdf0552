package mapreduce

import (
	"fmt"
	"hash/fnv"
	"math"
)

// Pair is a keyed record for the wide (shuffled) transformations.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// KeyBy turns records into pairs keyed by key(record).
func KeyBy[T any, K comparable](d *Dataset[T], key func(T) K) *Dataset[Pair[K, T]] {
	return Map(d, func(t T) Pair[K, T] { return Pair[K, T]{Key: key(t), Value: t} })
}

// Values projects the values of a pair dataset.
func Values[K comparable, V any](d *Dataset[Pair[K, V]]) *Dataset[V] {
	return Map(d, func(p Pair[K, V]) V { return p.Value })
}

// hashOf hashes a comparable key deterministically. Common key types take a
// fast path; everything else is hashed through its strconv/fnv encoding of
// the %v rendering, which is slower but still deterministic.
func hashOf[K comparable](k K) uint64 {
	switch v := any(k).(type) {
	case string:
		h := fnv.New64a()
		_, _ = h.Write([]byte(v))
		return h.Sum64()
	case int:
		return mixHash(uint64(v))
	case int32:
		return mixHash(uint64(v))
	case int64:
		return mixHash(uint64(v))
	case uint64:
		return mixHash(v)
	case float64:
		return mixHash(math.Float64bits(v))
	case bool:
		if v {
			return mixHash(1)
		}
		return mixHash(0)
	default:
		// Rare fallback for composite comparable keys; slower but still
		// deterministic.
		h := fnv.New64a()
		_, _ = fmt.Fprintf(h, "%#v", v)
		return h.Sum64()
	}
}

func mixHash(z uint64) uint64 {
	z = (z ^ (z >> 33)) * 0xff51afd7ed558ccd
	z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53
	return z ^ (z >> 33)
}
