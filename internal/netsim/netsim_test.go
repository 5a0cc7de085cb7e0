package netsim

import (
	"errors"
	"sync"
	"testing"
	"time"
)

type echo struct{}

func (echo) HandleRPC(req any) (any, error) { return req, nil }

func TestCallRoutesToHandler(t *testing.T) {
	l := NewLocal(0)
	l.Bind(1, echo{})
	resp, err := l.Call(1, "ping")
	if err != nil || resp != "ping" {
		t.Fatalf("%v %v", resp, err)
	}
}

func TestUnknownAndDownNodes(t *testing.T) {
	l := NewLocal(0)
	if _, err := l.Call(9, "x"); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("unknown node: %v", err)
	}
	l.Bind(1, echo{})
	l.SetDown(1, true)
	if _, err := l.Call(1, "x"); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("down node: %v", err)
	}
	l.SetDown(1, false)
	if _, err := l.Call(1, "x"); err != nil {
		t.Fatalf("recovered node: %v", err)
	}
}

func TestRebindReplacesHandler(t *testing.T) {
	l := NewLocal(0)
	l.Bind(1, HandlerFunc(func(any) (any, error) { return "old", nil }))
	l.Bind(1, HandlerFunc(func(any) (any, error) { return "new", nil }))
	resp, _ := l.Call(1, nil)
	if resp != "new" {
		t.Fatalf("rebind failed: %v", resp)
	}
}

func TestLatencyCharged(t *testing.T) {
	l := NewLocal(200 * time.Microsecond)
	l.Bind(1, echo{})
	//lint:ignore detcheck this test verifies that Wall-clock latency really elapses, so it must read the wall clock
	t0 := time.Now()
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := l.Call(1, i); err != nil {
			t.Fatal(err)
		}
	}
	//lint:ignore detcheck this test verifies that Wall-clock latency really elapses, so it must read the wall clock
	elapsed := time.Since(t0)
	if elapsed < n*2*200*time.Microsecond {
		t.Fatalf("latency undercharged: %v for %d calls", elapsed, n)
	}
}

func TestStatsCounting(t *testing.T) {
	l := NewLocal(0)
	l.Bind(1, echo{})
	l.Bind(2, echo{})
	for i := 0; i < 3; i++ {
		l.Call(1, i) //nolint:errcheck
	}
	l.Call(2, 0)  //nolint:errcheck
	l.Call(99, 0) //nolint:errcheck
	s := l.Stats()
	if s.Calls != 5 || s.Errors != 1 || s.PerNode[1] != 3 || s.PerNode[2] != 1 {
		t.Fatalf("stats %+v", s)
	}
	l.ResetStats()
	if s := l.Stats(); s.Calls != 0 || len(s.PerNode) != 0 {
		t.Fatalf("reset failed: %+v", s)
	}
}

// TestDelayAccuracy: Delay never returns early, and the best of a few
// trials is within 2 ms of the request. Judging the best trial keeps the
// bound on Delay itself: one wake-up that a loaded host delays (the whole
// suite's packages share the CPUs) is not Delay overshooting.
func TestDelayAccuracy(t *testing.T) {
	const trials = 5
	for _, d := range []time.Duration{20 * time.Microsecond, 200 * time.Microsecond} {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < trials; i++ {
			//lint:ignore detcheck this test measures Wall.Sleep accuracy against the real clock by design
			t0 := time.Now()
			Delay(d)
			//lint:ignore detcheck this test measures Wall.Sleep accuracy against the real clock by design
			got := time.Since(t0)
			if got < d {
				t.Fatalf("Delay(%v) returned after %v", d, got)
			}
			best = min(best, got)
		}
		if best > d+2*time.Millisecond {
			t.Fatalf("Delay(%v) badly overshot: best of %d trials %v", d, trials, best)
		}
	}
	Delay(0)  // must not block
	Delay(-1) // must not block
}

func TestConcurrentCalls(t *testing.T) {
	l := NewLocal(0)
	l.Bind(1, echo{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if resp, err := l.Call(1, g*1000+i); err != nil || resp != g*1000+i {
					t.Errorf("call: %v %v", resp, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s := l.Stats(); s.Calls != 1600 {
		t.Fatalf("calls %d", s.Calls)
	}
}
