// Package detmap is a dibella-lint test fixture: map iterations, clock
// reads, and PRNG use in a package the test configures as
// output-affecting. Expected diagnostics are encoded in the // want
// comments (see lint_test.go).
package detmap

import (
	"math/rand" // want detmap:"math/rand in output-affecting package"
	"sort"
	"time"
)

// BadKeyOrder lets map iteration order reach the returned slice.
func BadKeyOrder(m map[string]int) []string {
	var keys []string
	for k := range m { // want detmap:"map iteration order escapes"
		keys = append(keys, k)
	}
	return keys
}

// BadWallClock reads the raw wall clock.
func BadWallClock() time.Time {
	return time.Now() // want detmap:"use internal/walltime"
}

// BadShuffle consumes the PRNG (detmap flags the import line above).
func BadShuffle(n int) int { return rand.Intn(n) }

// GoodCollectThenSort is the sanctioned idiom: gather, sort, emit.
func GoodCollectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// GoodAccumulate only folds commutatively; order cannot matter.
func GoodAccumulate(m map[string]int) (total, n int) {
	for _, v := range m {
		total += v
		n++
	}
	return total, n
}

// GoodSetInsert writes a distinct element of another map per iteration.
func GoodSetInsert(m map[string]int) map[string]bool {
	seen := make(map[string]bool, len(m))
	for k := range m {
		seen[k] = true
	}
	return seen
}
