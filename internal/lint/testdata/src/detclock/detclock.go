// Package detclock is a fixture for detcheck's clock scope, the packages
// whose waits, deadlines and ages must read the netsim clock: the time and
// math/rand rules apply to their non-test files, the map-order rule does
// not, and their _test.go files are out of scope. The package name matches
// an entry in detClockPkgs so the analyzer's Scope admits it.
package detclock

import (
	"math/rand"
	"time"
)

func bad() {
	deadline := time.Now().Add(time.Millisecond) // want `time\.Now reads the wall clock in deterministic sim code`
	_ = time.Since(deadline)                     // want `time\.Since reads the wall clock in deterministic sim code`
	time.Sleep(time.Microsecond)                 // want `time\.Sleep reads the wall clock in deterministic sim code`
	t := time.NewTicker(time.Second)             // want `time\.NewTicker reads the wall clock in deterministic sim code`
	t.Stop()
	_ = rand.Int63n(10) // want `global rand\.Int63n is unseeded`
}

func good(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	total := r.Intn(10)
	// Map order is outside the clock scope.
	for _, v := range map[string]int{"a": 1, "b": 2} {
		total += v
	}
	return total
}
