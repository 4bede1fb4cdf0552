// Package reducerpurity is golden-test input: it exercises every positive
// and negative case of the reducerpurity analyzer. It is never built by the
// normal toolchain (testdata is ignored) and need not be runnable.
package reducerpurity

import (
	"fmt"
	"math/rand"
	"time"
)

type Pair struct {
	Key   string
	Value int
}

// The sink functions only need the right names; bodies are irrelevant.
func ReduceByKey(d []Pair, f func(int, int) int) []Pair                   { return d }
func Reduce(d []int, f func(int, int) int) int                            { return 0 }
func MapFold(d []int, first func(int) int, step func(int, int) int) []int { return d }
func ReduceSlice(xs []int, f func(int, int) int) (int, bool)              { return 0, false }
func PrefixSuffix(xs []int, f func(int, int) int) ([]int, []int)          { return nil, nil }
func Complement(pre, suf []int, lo, hi int, f func(int, int) int) (int, bool) {
	return 0, false
}
func CombineOpt(f func(int, int) int, a int, aOK bool, b int, bOK bool) (int, bool) {
	return 0, false
}
func ReduceDP(xs []int, f func(int, int) int) []int       { return nil }
func ReduceByKeyDP(d []Pair, f func(int, int) int) []Pair { return d }
func Unrelated(f func(int, int) int)                      {}

var globalCounter int

func pureUses(d []Pair, xs []int) {
	// Pure reducers: locals, params, arithmetic only.
	ReduceByKey(d, func(a, b int) int { return a + b })
	Reduce(xs, func(a, b int) int {
		acc := a // local of the literal: fine
		acc += b
		return acc
	})
	// Named (non-literal) reducers are out of scope for this analyzer.
	Unrelated(func(a, b int) int { globalCounter++; return a + b })
}

func capturedMutation(d []Pair, xs []int) {
	calls := 0
	ReduceByKey(d, func(a, b int) int {
		calls++ // want `mutates captured variable "calls"`
		return a + b
	})
	var sums []int
	_, _ = ReduceSlice(xs, func(a, b int) int {
		sums = append(sums, a) // want `mutates captured variable "sums"`
		return a + b
	})
	MapFold(xs,
		func(v int) int { return v },
		func(acc, v int) int {
			globalCounter = acc // want `mutates captured variable "globalCounter"`
			return acc + v
		})
}

func nondeterminism(d []Pair) {
	ReduceByKey(d, func(a, b int) int {
		if time.Now().Unix()%2 == 0 { // want `calls time.Now`
			return a
		}
		return b
	})
	ReduceByKey(d, func(a, b int) int {
		return a + rand.Intn(b+1) // want `calls rand.Intn \(global nondeterministic source\)`
	})
	// A locally seeded generator is deterministic and allowed.
	ReduceByKey(d, func(a, b int) int {
		r := rand.New(rand.NewSource(1))
		return a + r.Intn(b+1)
	})
}

func ioInReducer(d []Pair) {
	ReduceByKey(d, func(a, b int) int {
		fmt.Println(a, b) // want `performs I/O via fmt.Println`
		return a + b
	})
	ReduceByKey(d, func(a, b int) int {
		go func() { _ = a }() // want `starts a goroutine`
		return a + b
	})
}

func mapOrder(d []Pair, weights map[string]int) {
	ReduceByKey(d, func(a, b int) int {
		out := 0
		for _, w := range weights {
			out = out - w // want `writes to "out" under map iteration order`
		}
		return a + b + out
	})
	// Reading a map by key inside a slice range is fine.
	ReduceByKey(d, func(a, b int) int {
		keys := []string{"x", "y"}
		out := 0
		for _, k := range keys {
			out += weights[k]
		}
		return a + b + out
	})
}

func suppressed(d []Pair) {
	hits := 0
	ReduceByKey(d, func(a, b int) int {
		hits++ //upa:allow(reducerpurity) test-only instrumentation counter, reset between runs
		return a + b
	})
	// An annotation without a justification suppresses nothing: both the
	// violation and the malformed annotation are reported.
	ReduceByKey(d, func(a, b int) int {
		hits++ //upa:allow(reducerpurity) // want `mutates captured variable "hits"` `requires a justification`
		return a + b
	})
}

// The union-preserving reduce's helpers and the DP operators fold the same
// partials into many neighbours, so their reducers are sinks too.
func unionPreservingSinks(d []Pair, xs []int) {
	pre, suf := PrefixSuffix(xs, func(a, b int) int { return a + b })
	_, _ = Complement(pre, suf, 0, 1, func(a, b int) int { return a + b })
	_, _ = CombineOpt(func(a, b int) int { return a + b }, 1, true, 2, true)
	ReduceDP(xs, func(a, b int) int { return a + b })
	ReduceByKeyDP(d, func(a, b int) int { return a + b })

	seen := 0
	PrefixSuffix(xs, func(a, b int) int {
		seen++ // want `mutates captured variable "seen"`
		return a + b
	})
	Complement(pre, suf, 0, 1, func(a, b int) int {
		fmt.Println(a) // want `performs I/O via fmt.Println`
		return a + b
	})
	CombineOpt(func(a, b int) int {
		return a + rand.Intn(b+1) // want `calls rand.Intn \(global nondeterministic source\)`
	}, 1, true, 2, true)
	ReduceDP(xs, func(a, b int) int {
		globalCounter = b // want `mutates captured variable "globalCounter"`
		return a + b
	})
	ReduceByKeyDP(d, func(a, b int) int {
		if time.Now().Unix()%2 == 0 { // want `calls time.Now`
			return a
		}
		return b
	})
}
