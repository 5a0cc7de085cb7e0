package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"minuet/internal/core"
	"minuet/internal/wire"
	"minuet/internal/ycsb"
)

// sliceClock is what startSlice hands to endSlice.
type sliceClock struct {
	t0      time.Time
	before  counters
	scanned int64
}

// startSlice collects garbage (the collector is off inside slices), reads
// the counters and starts the slice's clock.
func (d *driver) startSlice() sliceClock {
	g := time.Now()
	runtime.GC()
	d.forcedGC += time.Since(g)
	var c sliceClock
	if d.tr != nil {
		c.before = d.counters()
	}
	if d.bg != nil {
		c.scanned = d.bg.keys.Load()
	}
	c.t0 = time.Now()
	return c
}

func (d *driver) endSlice(s *sliceResult, c sliceClock) {
	s.wall = time.Since(c.t0)
	if d.bg != nil {
		d.cur.scanKeys += d.bg.keys.Load() - c.scanned
		d.cur.scanWindow += s.wall
	}
	if d.tr != nil {
		s.delta = d.counters().sub(c.before)
	}
}

func (d *driver) counters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{core: d.st.fg.bt.Stats(), allocBytes: ms.TotalAlloc}
	c.allocs, c.frees = d.st.fg.al.Stats()
	return c
}

func (d *driver) draw(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = d.rng.Intn(len(d.keys))
	}
	return idx
}

// putOne writes a fresh value to record i in the version the foreground
// addresses, as a call of the given kind, and returns its duration.
func (d *driver) putOne(tag uint8, i int) time.Duration {
	v := d.rng.Uint64()
	val := ycsb.Value(v)
	var err error
	dt := d.timed(tag, func() { err = d.put(d.keys[i], val) })
	d.check(err, true, "Put %s", d.keys[i])
	if err == nil {
		d.keysWritten++
		d.set(i, v)
	}
	return dt
}

// snapshotSlice on a linear tree: snapshots × {CreateSnapshot; one put}.
// The last snapshot is the round's frozen version.
func (d *driver) snapshotSlice() sliceResult {
	bt := d.st.fg.bt
	idx := d.draw(d.p.ops.snapshots)
	s := sliceResult{lat: make([]time.Duration, 0, len(idx))}
	c := d.startSlice()
	for _, i := range idx {
		var snap core.Snapshot
		var err error
		s.lat = append(s.lat, d.timed(opSnapshot, func() { snap, err = bt.CreateSnapshot() }))
		d.check(err, true, "CreateSnapshot")
		d.frozen = &frozenVersion{snap: snap, count: len(d.keys), digest: d.digest}
		d.putOne(opOther, i)
	}
	d.endSlice(&s, c)
	return s
}

// forkSlice on a branching tree: snapshots × {one un-addressed mainline
// put; freeze the tip by continuing the mainline; open a what-if clone of
// the frozen version; one put to the clone}. Both CreateBranch calls are
// samples. The last frozen version is what the scanner reads from now on,
// the last clone what the foreground addresses.
func (d *driver) forkSlice() sliceResult {
	bt := d.st.fg.bt
	idx := d.draw(2 * d.p.ops.snapshots)
	s := sliceResult{lat: make([]time.Duration, 0, len(idx))}
	c := d.startSlice()
	for f := 0; f < len(idx); f += 2 {
		// Un-addressed: core resolves the mainline tip through the catalog.
		v := d.rng.Uint64()
		val := ycsb.Value(v)
		var err error
		d.timed(opOther, func() { err = bt.Put(d.keys[idx[f]], val) })
		d.check(err, true, "mainline Put")
		if err == nil {
			d.keysWritten++
			d.setTip(idx[f], v)
		}

		parent := d.tip
		var cont, clone core.Snapshot
		s.lat = append(s.lat, d.timed(opSnapshot, func() { cont, err = bt.CreateBranch(parent) }))
		d.check(err, true, "CreateBranch (mainline)")
		s.lat = append(s.lat, d.timed(opSnapshot, func() { clone, err = bt.CreateBranch(parent) }))
		d.check(err, true, "CreateBranch (clone)")
		d.tip, d.clone = cont.Sid, clone.Sid
		d.overlay = make(map[int]uint64)
		d.frozen = &frozenVersion{snap: core.Snapshot{Sid: parent}, count: len(d.keys), digest: d.digest}
		d.putOne(opOther, idx[f+1])
	}
	d.endSlice(&s, c)

	// Hand the scanner the newest frozen version. Its root comes from the
	// catalog entry, read fresh now that the version has branched.
	e, err := bt.Catalog().Refresh(d.frozen.snap.Sid)
	d.check(err, true, "catalog entry of frozen version %d", d.frozen.snap.Sid)
	d.frozen.snap.Root = e.Root
	d.bg.target.Store(d.frozen)
	return s
}

func (d *driver) getSlice() sliceResult {
	idx := d.draw(d.p.ops.gets)
	s := sliceResult{lat: make([]time.Duration, 0, len(idx))}
	c := d.startSlice()
	for _, i := range idx {
		var v []byte
		var ok bool
		var err error
		s.lat = append(s.lat, d.timed(opGet, func() { v, ok, err = d.get(d.keys[i]) }))
		d.check(err, ok && len(v) == 8 && le64(v) == d.value(i), "Get %s", d.keys[i])
	}
	d.endSlice(&s, c)
	return s
}

func (d *driver) putSlice() sliceResult {
	idx := d.draw(d.p.ops.puts)
	s := sliceResult{lat: make([]time.Duration, 0, len(idx))}
	c := d.startSlice()
	for _, i := range idx {
		s.lat = append(s.lat, d.putOne(opPut, i))
	}
	d.endSlice(&s, c)
	return s
}

func (d *driver) batchSlice() sliceResult {
	n := d.p.ops.batches
	idx := d.draw(n * batchKeys)
	s := sliceResult{lat: make([]time.Duration, 0, n)}
	vals := make([]uint64, batchKeys)
	c := d.startSlice()
	for ; len(idx) > 0; idx = idx[batchKeys:] {
		// A fresh slice per batch: the tree may keep what it is handed.
		ops := make([]core.BatchOp, batchKeys)
		for j, i := range idx[:batchKeys] {
			vals[j] = d.rng.Uint64()
			ops[j] = core.BatchOp{Key: d.keys[i], Val: ycsb.Value(vals[j])}
		}
		var err error
		s.lat = append(s.lat, d.timed(opBatch, func() { err = d.applyBatch(ops) }))
		d.check(err, true, "ApplyBatch")
		if err == nil {
			for j, i := range idx[:batchKeys] { // in order: a repeated key keeps its last value
				d.set(i, vals[j])
			}
			d.keysWritten += batchKeys
			s.keys += batchKeys
		}
	}
	d.endSlice(&s, c)
	return s
}

// scanSlice reads the round's frozen version completely, scans times, in
// scanChunk-key calls. Only the calls are timed; order, count and digest
// are checked between them.
func (d *driver) scanSlice() sliceResult {
	var s sliceResult
	c := d.startSlice()
	for pass := 0; pass < d.p.ops.scans; pass++ {
		got, err := scanPass(d.st.fg, d.tr, d.frozen.snap, nil, func(dt time.Duration, _ int) { s.lat = append(s.lat, dt) })
		d.res.attempted += int64(got.calls)
		if msg := d.frozen.mismatch(got, err); msg != "" {
			d.failf("scan: %s", msg)
		}
		s.keys += got.count
	}
	d.endSlice(&s, c)
	return s
}

// scanned is what one pass over a version returned.
type scanned struct {
	count  int
	digest uint64
	calls  int
}

// mismatch describes how a pass differs from what the model recorded when
// the version froze; "" when it does not.
func (v *frozenVersion) mismatch(got scanned, err error) string {
	switch {
	case err != nil:
		return fmt.Sprintf("version %d: %v", v.snap.Sid, err)
	case got.count != v.count || got.digest != v.digest:
		return fmt.Sprintf("version %d: %d keys digest %x, froze with %d keys digest %x",
			v.snap.Sid, got.count, got.digest, v.count, v.digest)
	}
	return ""
}

var errScanStopped = errors.New("scan stopped")

// scanPass reads version v from the lowest key up through client c, one
// root span and one each call per ScanSnapshot, and returns what it saw.
// Keys must come back strictly ascending. A set stop flag ends the pass
// early with errScanStopped.
func scanPass(c *client, tr *tracer, v core.Snapshot, stop *atomic.Bool, each func(dt time.Duration, keys int)) (scanned, error) {
	var got scanned
	var start wire.Key
	var prev []byte
	for {
		if stop != nil && stop.Load() {
			return got, errScanStopped
		}
		t0 := time.Now()
		sp := tr.begin(c.cell, opScan)
		kvs, err := c.bt.ScanSnapshot(v, start, scanChunk)
		tr.end(c.cell, sp)
		dt := time.Since(t0)
		got.calls++
		if err != nil {
			return got, err
		}
		each(dt, len(kvs))
		for _, kv := range kvs {
			if prev != nil && bytes.Compare(prev, kv.Key) >= 0 {
				return got, fmt.Errorf("key %q after %q", kv.Key, prev)
			}
			if len(kv.Val) != 8 {
				return got, fmt.Errorf("key %q has a %d-byte value", kv.Key, len(kv.Val))
			}
			got.digest += kvHash(kv.Key, le64(kv.Val))
			prev = kv.Key
		}
		got.count += len(kvs)
		if len(kvs) < scanChunk {
			return got, nil
		}
		start = append(append(wire.Key(nil), prev...), 0)
	}
}

// scanner is the analytics client of the branching workload: its own proxy
// handle, scanning the newest frozen version over and over and checking
// each pass against the digest recorded when the version froze.
type scanner struct {
	c      *client
	tr     *tracer
	target atomic.Pointer[frozenVersion]
	keys   atomic.Int64 // keys returned so far
	stop   atomic.Bool
	done   chan struct{}

	mu       sync.Mutex
	lat      []time.Duration // guarded by mu; per-call durations since the last takeLat
	calls    int64           // guarded by mu
	passes   int64           // guarded by mu; complete passes checked
	failures []string        // guarded by mu
}

// start launches the scan loop; halt stops it and waits for it.
func (s *scanner) start() {
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		for !s.stop.Load() {
			v := s.target.Load()
			got, err := scanPass(s.c, s.tr, v.snap, &s.stop, func(dt time.Duration, keys int) {
				s.keys.Add(int64(keys))
				s.mu.Lock()
				s.lat = append(s.lat, dt)
				s.mu.Unlock()
			})
			s.mu.Lock()
			s.calls += int64(got.calls)
			if err != errScanStopped {
				s.passes++
				if msg := v.mismatch(got, err); msg != "" {
					s.failures = append(s.failures, "scanner: "+msg)
				}
			}
			s.mu.Unlock()
		}
	}()
}

func (s *scanner) halt() {
	s.stop.Store(true)
	<-s.done
}

func (s *scanner) takeLat() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	lat := s.lat
	s.lat = nil
	return lat
}
