package main

import (
	"bytes"
	"net"
	"regexp"
	"testing"
	"time"
)

// TestRunFailureTearsDownCluster drives run with -cluster 1 into a failure
// that happens after the server process is up (attaching to a tree that a
// fresh memnode cannot hold) and requires that run returns the error and
// that the spawned server is gone: a failing driver must not leave
// minuet-server processes behind.
func TestRunFailureTearsDownCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns minuet-server")
	}
	var out bytes.Buffer
	err := run([]string{"-cluster", "1", "-create=false", "-n", "10", "-run", "10ms"}, &out)
	if err == nil {
		t.Fatalf("run attached to a tree on an empty memnode; output:\n%s", out.String())
	}
	m := regexp.MustCompile(`memnode 0 at (\S+)`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("run failed before the cluster was up (%v); output:\n%s", err, out.String())
	}
	if conn, derr := net.DialTimeout("tcp", m[1], time.Second); derr == nil {
		conn.Close()
		t.Fatalf("memnode at %s still accepts connections after run returned %v", m[1], err)
	}
}
