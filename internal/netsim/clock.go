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
// direct time.Now/time.Sleep calls in netsim are findings, and the
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

// Wall is the real-time Clock. Its Sleep is a plain time.Sleep, which a
// lightly loaded runtime may round up to the OS timer resolution: right
// for backoff waits and polls, which have no accuracy need. Modelled
// latency goes through Delay, which is accurate to the microsecond.
type Wall struct{}

// Now returns time.Now.
func (Wall) Now() time.Time {
	//lint:ignore detcheck Wall is the real-time Clock implementation; every other netsim read routes through it
	return time.Now()
}

// Sleep blocks for at least d.
func (Wall) Sleep(d time.Duration) {
	//lint:ignore detcheck Wall is the real-time Clock implementation; every other netsim sleep routes through it
	time.Sleep(d)
}

// SleepOrDone is c.Sleep(d) for a loop that polls done between sleeps: on
// the Wall clock the sleep also ends as soon as done closes, so the loop
// stops without waiting out its slice (a Virtual sleep returns at once
// anyway). It is for polling, not for modelled latency (Delay).
func SleepOrDone(c Clock, d time.Duration, done <-chan struct{}) {
	if _, wall := c.(Wall); !wall || d <= 0 {
		c.Sleep(d)
		return
	}
	//lint:ignore detcheck the Wall clock's interruptible sleep, as Wall.Sleep is its plain one
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-done:
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
