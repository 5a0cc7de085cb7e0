package netsim

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Clock is the simulator's time source. Everything in netsim that reads or
// advances time goes through the active Clock, and so does every wait,
// deadline and age in sinfonia, dyntx, alloc and core, so a test can swap
// in a Virtual clock and make an entire run — latency injection and retry
// budgets included — deterministic and instantaneous. The detcheck analyzer enforces this:
// direct time.Now/time.Sleep calls in netsim are findings, and the two
// wall-clock calls below carry the only justified suppressions.
type Clock interface {
	// Now returns the current time. Successive calls are monotonic.
	Now() time.Time
	// Sleep blocks (or virtually advances) for d.
	Sleep(d time.Duration)
}

// activeClock holds the Clock used by Delay and Quiesce. Stored atomically
// so SetClock can race with in-flight Calls during test setup.
var activeClock atomic.Pointer[clockBox]

type clockBox struct{ c Clock }

func init() {
	activeClock.Store(&clockBox{c: Wall{}})
}

// SetClock installs c as the package clock and returns the previous one.
// Install Virtual in tests that need deterministic time; restore the
// returned clock when done.
func SetClock(c Clock) (prev Clock) {
	old := activeClock.Swap(&clockBox{c: c})
	return old.c
}

// CurrentClock returns the active package clock.
func CurrentClock() Clock { return activeClock.Load().c }

// Wall is the real-time Clock. Its Sleep has microsecond-level accuracy:
// plain time.Sleep rounds short sleeps up to OS timer resolution when the
// runtime is otherwise idle (~1 ms), which would make lightly-loaded
// configurations look *slower* than loaded ones and distort every latency
// comparison the benchmarks make. Sleep therefore sleeps for the bulk of d
// and spins (yielding) for the tail.
type Wall struct{}

// Now returns time.Now.
func (Wall) Now() time.Time {
	//lint:ignore detcheck Wall is the real-time Clock implementation; every other netsim read routes through it
	return time.Now()
}

// Sleep blocks for d with microsecond-level accuracy.
func (w Wall) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	t0 := w.Now()
	if d > 100*time.Microsecond {
		//lint:ignore detcheck Wall is the real-time Clock implementation; every other netsim sleep routes through it
		time.Sleep(d - 50*time.Microsecond)
	}
	for w.Now().Sub(t0) < d {
		runtime.Gosched()
	}
}

// Virtual is a deterministic Clock: time stands still except that Sleep
// advances it by exactly the requested duration. Two runs that issue the
// same sequence of sleeps observe the same sequence of times, and no real
// time passes — a latency-injected netsim run completes as fast as the CPU
// allows. The zero value starts at the Unix epoch.
type Virtual struct {
	ns atomic.Int64 // nanoseconds since the epoch
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time { return time.Unix(0, v.ns.Load()) }

// Sleep advances virtual time by d and yields once so concurrent
// goroutines (e.g. the handler whose latency is being modeled) make
// progress.
func (v *Virtual) Sleep(d time.Duration) {
	if d > 0 {
		v.ns.Add(int64(d))
	}
	runtime.Gosched()
}
