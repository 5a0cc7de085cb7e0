package detclock

import "time"

// Test files are outside the clock scope: a watchdog may read real time.
func watchdog() <-chan time.Time {
	_ = time.Now()
	return time.After(time.Second)
}
