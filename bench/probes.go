package main

import (
	"encoding/gob"
	"runtime"
	"time"

	"minuet/internal/dyntx"
	"minuet/internal/netsim"
	"minuet/internal/rpcnet"
	"minuet/internal/sinfonia"
	"minuet/internal/wal"
)

// Probes time one call into one layer with nothing else in the way, so that
// a change inside a layer has a number that moves even when the end-to-end
// metrics hide it. They run once per -trace run, after the rounds, and do
// not depend on the workload.

// probeP50 calls op n times after a tenth as many warm-up calls and returns
// the median duration in microseconds; 0 and the error if op fails.
func probeP50(n int, op func(i int) error) (float64, error) {
	us := make([]float64, 0, n)
	for i := -n / 10; i < n; i++ {
		t0 := time.Now()
		err := op(i)
		dt := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if i >= 0 {
			us = append(us, float64(dt)/1e3)
		}
	}
	return median(us), nil
}

// echoMsg is the payload of the rpcnet echo probe.
type echoMsg struct{ Payload []byte }

func init() { gob.Register(&echoMsg{}) }

func (d *driver) probes() {
	// One processor whatever the workload ran with: a second one puts a
	// futex wake-up into every echo and triples it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	probe := func(name string, op func(i int) error) {
		v, err := probeP50(d.p.probeIters, op)
		if err != nil {
			d.failf("probe %s: %v", name, err)
		}
		d.emit(name, v, d.p.probeIters)
	}

	// One memnode, in process, no transport worth the name.
	mn := sinfonia.NewMemnode(0)
	local := netsim.NewLocal(0)
	local.Bind(0, mn)
	sc := sinfonia.NewClient(local, []sinfonia.NodeID{0})
	cell := dyntx.Ref{Ptr: sinfonia.Ptr{Node: 0, Addr: 1 << 20}}
	data := make([]byte, 64)
	probe("dyntx.rw_commit_us", func(int) error {
		// One read and one write validated against it, committed.
		return dyntx.Run(sc, dyntx.RunOptions{}, func(t *dyntx.Txn) error {
			if _, err := t.Read(cell); err != nil {
				return err
			}
			t.Write(cell, data)
			return nil
		})
	})
	probe("sinfonia.exec_commit_direct_us", func(i int) error {
		_, err := mn.HandleRPC(&sinfonia.ExecCommitReq{
			Txid:   uint64(i + d.p.probeIters),
			Writes: []sinfonia.WriteItem{{Node: 0, Addr: 2 << 20, Data: data}},
		})
		return err
	})

	log, _, err := wal.Open(wal.NewMemFS(), wal.Options{})
	if err != nil {
		d.failf("probe wal: %v", err)
	} else {
		page := make([]byte, 4096)
		probe("wal.append_commit_us", func(int) error { return log.AppendCommit(page) })
		_ = log.Close() // a probe log on MemFS: nothing to lose
	}

	srv, err := rpcnet.Listen("127.0.0.1:0", netsim.HandlerFunc(func(req any) (any, error) { return req, nil }))
	if err != nil {
		d.failf("probe rpcnet: %v", err)
		return
	}
	defer srv.Close()
	cl := rpcnet.NewClient(map[netsim.NodeID]string{0: srv.Addr()})
	defer cl.Close()
	for name, size := range map[string]int{"rpcnet.echo_p50_us": 16, "rpcnet.echo_4k_p50_us": 4096} {
		msg := &echoMsg{Payload: make([]byte, size)}
		probe(name, func(int) error { // closed loop: a window of one
			_, err := cl.Call(0, msg)
			return err
		})
	}
}
