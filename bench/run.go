package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"minuet/internal/core"
	"minuet/internal/sinfonia"
	"minuet/internal/wal"
	"minuet/internal/wire"
	"minuet/internal/ycsb"
)

// metricValue is one reported number and how many samples it rests on.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is everything one run reports.
type result struct {
	metrics   map[string]metricValue
	attempted int64
	failed    int64
	failures  []string // the first few, for the log

	setups      []float64 // seconds, one per set-up
	warmupS     float64
	measureS    float64
	recoveryS   float64
	spans       int64
	spansLost   int64
	digest      uint64 // of the model's tip when the run ended
	sliceCounts sliceOps
	sliceWalls  [][]float64 // seconds; per round (warm-up first): snapshot, get, batch, put, scan, checkpoint
}

// frozenVersion is a read-only version together with what the model says a
// full scan of it must return.
type frozenVersion struct {
	snap   core.Snapshot
	count  int
	digest uint64
}

// counters are the cumulative counts the layers expose, read at slice and
// window boundaries so that ratios are measured where the work happens.
type counters struct {
	core       core.Stats
	allocs     int64
	frees      int64
	allocBytes uint64 // runtime.MemStats.TotalAlloc, process-wide
}

func (c counters) sub(o counters) counters {
	return counters{
		core: core.Stats{
			Ops:        c.core.Ops - o.core.Ops,
			Retries:    c.core.Retries - o.core.Retries,
			Roundtrips: c.core.Roundtrips - o.core.Roundtrips,
			CacheHits:  c.core.CacheHits - o.core.CacheHits,
			CacheMiss:  c.core.CacheMiss - o.core.CacheMiss,
			Splits:     c.core.Splits - o.core.Splits,
			CopyOnWr:   c.core.CopyOnWr - o.core.CopyOnWr,
			Discretion: c.core.Discretion - o.core.Discretion,
		},
		allocs:     c.allocs - o.allocs,
		frees:      c.frees - o.frees,
		allocBytes: c.allocBytes - o.allocBytes,
	}
}

// sliceResult is one slice of one round.
type sliceResult struct {
	lat   []time.Duration // one per timed public call
	keys  int             // keys written (batch) or returned (scan)
	wall  time.Duration
	delta counters // -trace runs only
}

// busy is the time spent inside the slice's timed calls: what throughput
// is divided by, so that the driver's own checking between calls is left
// out.
func (s *sliceResult) busy() time.Duration { return sumDur(s.lat) }

type roundResult struct {
	recording  bool
	snapshot   sliceResult
	get        sliceResult
	put        sliceResult
	batch      sliceResult
	scan       sliceResult // linear trees: the foreground scan slice
	scanKeys   int64       // branching: keys the scanner returned during the four slices
	scanWindow time.Duration
	checkpoint time.Duration // durable: the round's CheckpointNow calls
}

func (r *roundResult) scanRate() float64 {
	if r.scanWindow > 0 {
		return ratio(float64(r.scanKeys), r.scanWindow.Seconds())
	}
	return ratio(float64(r.scan.keys), r.scan.busy().Seconds())
}

type driver struct {
	w   *workload
	p   plan
	rng *rand.Rand
	tr  *tracer
	st  *stack
	bg  *scanner

	// The model. keys[i] is record i's key; base[i] its value at the tip
	// (the mainline tip on a branching tree); overlay holds the writes made
	// to the current what-if clone. digest is an order-independent digest
	// of (key, base value) over all records, kept current on every write so
	// that a frozen version's expected scan result costs nothing to record.
	keys    [][]byte
	base    []uint64
	overlay map[int]uint64
	digest  uint64

	tip    uint64 // branching: the mainline's writable version
	clone  uint64 // branching: the what-if clone the foreground addresses
	frozen *frozenVersion

	res         result
	keysWritten int64
	forcedGC    time.Duration
	cur         *roundResult
}

func le64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// kvHash mixes one record into the order-independent digest.
func kvHash(k []byte, v uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range k {
		h = (h ^ uint64(b)) * 1099511628211
	}
	h ^= v
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 32
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 32
	return h
}

func (d *driver) failf(format string, a ...any) {
	d.res.failed++
	if len(d.res.failures) < 5 {
		d.res.failures = append(d.res.failures, fmt.Sprintf(format, a...))
	}
}

// check counts one attempted operation and records it as failed unless it
// returned no error and the expected result.
func (d *driver) check(err error, ok bool, format string, a ...any) {
	d.res.attempted++
	if err != nil {
		d.failf(format+": %v", append(a, err)...)
	} else if !ok {
		d.failf(format+": wrong result", a...)
	}
}

func (d *driver) value(i int) uint64 {
	if v, ok := d.overlay[i]; ok {
		return v
	}
	return d.base[i]
}

func (d *driver) setTip(i int, v uint64) {
	d.digest += kvHash(d.keys[i], v) - kvHash(d.keys[i], d.base[i])
	d.base[i] = v
}

// set records a write to the version the foreground addresses.
func (d *driver) set(i int, v uint64) {
	if d.w.branching {
		d.overlay[i] = v
	} else {
		d.setTip(i, v)
	}
}

// --- the tree calls, addressed to the clone on a branching tree -----------

func (d *driver) get(k wire.Key) ([]byte, bool, error) {
	if d.w.branching {
		return d.st.fg.bt.GetAt(d.clone, k)
	}
	return d.st.fg.bt.Get(k)
}

func (d *driver) put(k wire.Key, v []byte) error {
	if d.w.branching {
		return d.st.fg.bt.PutAt(d.clone, k, v)
	}
	return d.st.fg.bt.Put(k, v)
}

func (d *driver) applyBatch(ops []core.BatchOp) error {
	if d.w.branching {
		return d.st.fg.bt.ApplyBatchAt(d.clone, ops)
	}
	return d.st.fg.bt.ApplyBatch(ops)
}

// timed runs one public call inside a root span and returns its duration.
func (d *driver) timed(tag uint8, call func()) time.Duration {
	t0 := time.Now()
	sp := d.tr.begin(d.st.fg.cell, tag)
	call()
	d.tr.end(d.st.fg.cell, sp)
	return time.Since(t0)
}

// --- set-up ---------------------------------------------------------------

// makeRecords fills the model with p.records distinct records. The record
// set is the same for every seed; the seed drives which keys the
// operations touch and what they write.
func (d *driver) makeRecords() {
	seen := make(map[string]bool, d.p.records)
	for id := uint64(0); len(d.keys) < d.p.records; id++ {
		k := ycsb.Key(id)
		if seen[string(k)] {
			continue // ycsb.Key hashes ids into 10 digits; ids can collide
		}
		seen[string(k)] = true
		d.keys = append(d.keys, k)
		d.base = append(d.base, id)
		d.digest += kvHash(k, id)
	}
}

// setup builds the stack and preloads the records in preloadBatch-key
// batches through the foreground client.
func (d *driver) setup() error {
	st, err := buildStack(d.w, d.tr, nil)
	if err != nil {
		return err
	}
	d.st = st
	cell := newOpCell()
	if d.tr != nil {
		cell = d.tr.fg
	}
	if st.fg, err = st.newClient(cell, true); err != nil {
		return err
	}
	ops := make([]core.BatchOp, 0, preloadBatch)
	for i := 0; i < len(d.keys); {
		ops = ops[:0]
		for ; i < len(d.keys) && len(ops) < preloadBatch; i++ {
			ops = append(ops, core.BatchOp{Key: d.keys[i], Val: ycsb.Value(d.base[i])})
		}
		d.check(st.fg.bt.ApplyBatch(ops), true, "preload batch")
	}
	if d.w.branching {
		d.tip = 1 // the initial version
		bg, err := st.newClient(newOpCell(), false)
		if err != nil {
			return err
		}
		d.bg = &scanner{c: bg, tr: d.tr}
	}
	return nil
}

// --- rounds ---------------------------------------------------------------

// round runs the slices in their fixed order: snapshot, get, batch, put,
// scan. The batch slice rewrites nearly every leaf, so the puts after it
// find their leaf already copied for the current version and put_p50_us is
// the cost of a plain update on every workload; with put before batch, the
// short put slice of the TCP workload was half copy-on-write and its median
// sat between the two costs. On a branching tree the scan is the background
// client's, so the round has four foreground slices.
func (d *driver) round(recording bool) roundResult {
	r := roundResult{recording: recording}
	d.cur = &r
	d.tr.setOn(recording)
	if d.w.branching {
		r.snapshot = d.forkSlice()
		if d.bg.done == nil {
			d.bg.start() // first round: there is a frozen version to scan now
		}
	} else {
		r.snapshot = d.snapshotSlice()
	}
	r.get = d.getSlice()
	r.batch = d.batchSlice()
	r.put = d.putSlice()
	if !d.w.branching {
		r.scan = d.scanSlice()
	}
	if d.w.durable {
		// One checkpoint per memnode per round, here and nowhere else, so
		// that no background goroutine lands in a random slice.
		t0 := time.Now()
		sp := d.tr.begin(d.st.fg.cell, opOther)
		for _, mn := range d.st.memnodes {
			d.check(mn.CheckpointNow(), true, "CheckpointNow")
		}
		d.tr.end(d.st.fg.cell, sp)
		r.checkpoint = time.Since(t0)
	}
	d.tr.setOn(false)
	d.res.sliceWalls = append(d.res.sliceWalls, []float64{
		r.snapshot.wall.Seconds(), r.get.wall.Seconds(), r.batch.wall.Seconds(), r.put.wall.Seconds(), r.scan.wall.Seconds(), r.checkpoint.Seconds(),
	})
	return r
}

// window is the state of every cumulative counter at one instant; the layer
// metrics are differences between two of them.
type window struct {
	counters
	mem      sinfonia.StatsResp
	wal      wal.Stats
	calls    int64 // Transport.Call count through the foreground decorator
	wire     int64
	ckpt     int64
	written  int64
	bgCore   core.Stats
	bgKeys   int64
	forcedGC time.Duration
	at       time.Time
}

func (d *driver) window() window {
	w := window{at: time.Now(), written: d.keysWritten, forcedGC: d.forcedGC}
	var err error
	if w.mem, err = d.st.memnodeStats(); err != nil {
		d.failf("memnode stats: %v", err)
	}
	w.counters = d.counters()
	w.wal = d.st.walStats()
	if d.tr != nil {
		w.calls, w.wire, w.ckpt = d.tr.fg.calls.Load(), d.tr.wireBytes.Load(), d.tr.ckptBytes.Load()
	}
	if d.bg != nil {
		w.bgCore, w.bgKeys = d.bg.c.bt.Stats(), d.bg.keys.Load()
	}
	return w
}

func newDriver(w *workload, seed int64, p plan) *driver {
	d := &driver{w: w, p: p, rng: rand.New(rand.NewSource(seed))}
	d.res.metrics = make(map[string]metricValue)
	d.res.sliceCounts = p.ops
	d.makeRecords()
	if p.traceRounds > 0 {
		// About three spans per point op and per leaf a scan reads, and the
		// scanner of the branching workload reads leaves the whole time.
		perRound := 4*(p.ops.gets+p.ops.puts+p.ops.snapshots*8) + 16*p.ops.batches + p.ops.scans*p.records/16 + 1<<16
		if w.branching {
			perRound += p.records * 4
		}
		d.tr = newTracer(perRound * p.traceRounds)
	}
	return d
}

// run executes one workload once and returns every number it produced. A
// plan with recording rounds makes it a traced run: decorators on every
// seam, layer metrics computed, spans written to traceDir unless that is
// empty.
func run(w *workload, seed int64, p plan, traceDir string) (*result, error) {
	// One processor per client goroutine. With a second one, the helper
	// goroutines of a two-memnode commit and the TCP server's goroutines get
	// woken on it through the futex path, which on the sandbox doubles the
	// median latency and spreads it; with one they run in turn.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	d := newDriver(w, seed, p)

	// Set-up, with the default collector, p.setups times; the last stack is
	// the one measured.
	for i := 0; i < p.setups; i++ {
		if d.st != nil {
			d.st.close()
			d.st, d.bg = nil, nil
			runtime.GC()
		}
		t0 := time.Now()
		if err := d.setup(); err != nil {
			if d.st != nil {
				d.st.close()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d.res.setups = append(d.res.setups, time.Since(t0).Seconds())
	}
	defer d.st.close()

	// From here on the collector runs only where the driver says so, with
	// a memory limit as the safety net.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(4 << 30))

	t0 := time.Now()
	for i := 0; i < p.warmRounds; i++ {
		d.round(false)
	}
	d.res.warmupS = time.Since(t0).Seconds()

	var rounds []roundResult
	if d.bg != nil {
		d.bg.takeLat()
	}
	first := d.window()
	for i := 0; i < p.rounds+p.traceRounds; i++ {
		// A -trace run alternates: plain, recording, plain, ... so that each
		// recording round has a plain neighbour on either side.
		rounds = append(rounds, d.round(d.tr != nil && i%2 == 1))
	}
	last := d.window()
	d.res.measureS = last.at.Sub(first.at).Seconds()

	var bgLat []time.Duration
	if d.bg != nil {
		d.bg.halt()
		bgLat = d.bg.takeLat()
		d.res.attempted += d.bg.calls
		for _, f := range d.bg.failures {
			d.failf("%s", f)
		}
		if d.bg.passes == 0 {
			d.failf("scanner completed no pass")
		}
	}
	if w.durable {
		t0 := time.Now()
		d.verifyRecovery()
		d.res.recoveryS = time.Since(t0).Seconds()
	}

	d.res.digest = d.digest
	var plain, rec []roundResult
	for _, r := range rounds {
		if r.recording {
			rec = append(rec, r)
		} else {
			plain = append(plain, r)
		}
	}
	d.endToEnd(plain, last)
	if d.tr != nil {
		d.st.close() // every server goroutine has finished: the spans are stable
		d.layers(rounds, plain, rec, first, last, bgLat)
		if traceDir != "" {
			if err := os.MkdirAll(traceDir, 0o755); err != nil {
				return nil, err
			}
			if err := d.tr.writeTo(filepath.Join(traceDir, "trace-"+w.name+".csv")); err != nil {
				return nil, err
			}
		}
	}
	return &d.res, nil
}

// verifyRecovery crashes the durable memnodes — only fsynced bytes survive —
// reopens them and reads every acknowledged record back.
func (d *driver) verifyRecovery() {
	disks := make([]*wal.MemFS, len(d.st.disks))
	for i, disk := range d.st.disks {
		disks[i] = disk.CrashCopy(wal.TailSynced)
	}
	plain := *d.w
	plain.tcp = false
	st, err := buildStack(&plain, nil, disks)
	if err != nil {
		d.failf("reopen after crash: %v", err)
		return
	}
	defer st.close()
	c, err := st.newClient(newOpCell(), false)
	if err != nil {
		d.failf("reopen after crash: %v", err)
		return
	}
	snap, err := c.bt.CreateSnapshot()
	d.check(err, true, "CreateSnapshot after recovery")
	want := frozenVersion{snap: snap, count: len(d.keys), digest: d.digest}
	got, err := scanPass(c, nil, snap, nil, func(time.Duration, int) {})
	d.res.attempted += int64(got.calls)
	if msg := want.mismatch(got, err); msg != "" {
		d.failf("after crash and recovery: %s", msg)
	}
}

// --- metrics --------------------------------------------------------------

func (d *driver) emit(name string, v float64, samples int) {
	d.res.metrics[name] = metricValue{Value: v, Samples: samples}
}

// overRounds reduces each round to one number and takes the midmean.
func overRounds(rounds []roundResult, f func(*roundResult) float64) float64 {
	vs := make([]float64, len(rounds))
	for i := range rounds {
		vs[i] = f(&rounds[i])
	}
	return midmean(vs)
}

// Selectors of one slice kind within a round.
type sliceOf func(*roundResult) *sliceResult

var (
	snapshotOf sliceOf = func(r *roundResult) *sliceResult { return &r.snapshot }
	getOf      sliceOf = func(r *roundResult) *sliceResult { return &r.get }
	putOf      sliceOf = func(r *roundResult) *sliceResult { return &r.put }
	batchOf    sliceOf = func(r *roundResult) *sliceResult { return &r.batch }
	scanOf     sliceOf = func(r *roundResult) *sliceResult { return &r.scan }
)

// p50 is the slice kind's median latency in one round.
func (of sliceOf) p50(r *roundResult) float64 { return quantile(micros(of(r).lat), 0.5) }

// samples counts the slice kind's timed calls over rounds.
func (of sliceOf) samples(rounds []roundResult) int {
	n := 0
	for i := range rounds {
		n += len(of(&rounds[i]).lat)
	}
	return n
}

// pool concatenates the slice kind's samples over rounds, in microseconds.
func (of sliceOf) pool(rounds []roundResult) []float64 {
	var out []float64
	for i := range rounds {
		out = append(out, micros(of(&rounds[i]).lat)...)
	}
	return out
}

// endToEnd computes what a user of the tree sees, from rounds that ran with
// nothing recording.
func (d *driver) endToEnd(rounds []roundResult, last window) {
	d.emit("setup_s", median(d.res.setups), len(d.res.setups))
	d.emit("get_p50_us", overRounds(rounds, getOf.p50), getOf.samples(rounds))
	d.emit("put_p50_us", overRounds(rounds, putOf.p50), putOf.samples(rounds))
	d.emit("batch_keys_per_s", overRounds(rounds, func(r *roundResult) float64 {
		return ratio(float64(r.batch.keys), r.batch.busy().Seconds())
	}), batchOf.samples(rounds))
	scans := scanOf.samples(rounds)
	if d.bg != nil {
		scans = int(d.bg.calls)
	}
	d.emit("scan_keys_per_s", overRounds(rounds, (*roundResult).scanRate), scans)
	d.emit("snapshot_p50_us", overRounds(rounds, snapshotOf.p50), snapshotOf.samples(rounds))
	d.emit("mem_bytes_per_user_byte", ratio(float64(last.mem.Bytes), float64(len(d.keys)*userBytes)), 1)
}

// layers computes the per-layer numbers of a -trace run. Counts come from
// every measured round (they do not depend on whether spans are recorded);
// span times from the recording rounds; latency tails from the plain ones.
func (d *driver) layers(rounds, base, rec []roundResult, first, last window, bgLat []time.Duration) {
	sum := d.tr.summarize()
	d.res.spans, d.res.spansLost = d.tr.n.Load(), d.tr.dropped.Load()

	// Per-slice counter deltas, summed over all measured rounds.
	var get, put, batch, scan counters
	var gets, puts, batchKeys, scanKeys float64
	add := func(a *counters, b counters) {
		a.core.Roundtrips += b.core.Roundtrips
		a.core.CopyOnWr += b.core.CopyOnWr
		a.allocs += b.allocs
		a.allocBytes += b.allocBytes
	}
	for i := range rounds {
		r := &rounds[i]
		add(&get, r.get.delta)
		add(&put, r.put.delta)
		add(&batch, r.batch.delta)
		add(&scan, r.scan.delta)
		gets += float64(len(r.get.lat))
		puts += float64(len(r.put.lat))
		batchKeys += float64(r.batch.keys)
		scanKeys += float64(r.scan.keys)
	}
	all := last.counters.sub(first.counters)
	if d.bg != nil {
		// The scan is the background client's: its handle's round trips, its
		// keys, and — allocation being process-wide — everything allocated
		// while the foreground slices ran.
		scan.core.Roundtrips = last.bgCore.Roundtrips - first.bgCore.Roundtrips
		scanKeys = float64(last.bgKeys - first.bgKeys)
		scan.allocBytes = get.allocBytes + put.allocBytes + batch.allocBytes
	}
	d.emit("core.roundtrips_per_get", ratio(float64(get.core.Roundtrips), gets), int(gets))
	d.emit("core.roundtrips_per_put", ratio(float64(put.core.Roundtrips), puts), int(puts))
	d.emit("core.roundtrips_per_batch_key", ratio(float64(batch.core.Roundtrips), batchKeys), int(batchKeys))
	d.emit("core.roundtrips_per_scan_key", ratio(float64(scan.core.Roundtrips), scanKeys), int(scanKeys))
	d.emit("core.cache_hit_ratio", ratio(float64(all.core.CacheHits), float64(all.core.CacheHits+all.core.CacheMiss)), int(all.core.CacheHits+all.core.CacheMiss))
	d.emit("core.retries_per_op", ratio(float64(all.core.Retries), float64(all.core.Ops)), int(all.core.Ops))
	d.emit("core.cow_nodes_per_put", ratio(float64(put.core.CopyOnWr), puts), int(puts))
	d.emit("core.splits", float64(all.core.Splits), 1)
	d.emit("core.discretionary_copies", float64(all.core.Discretion), 1)
	self := func(tag uint8, per float64) float64 {
		return ratio(float64(sum.opTotal[tag]-sum.opCovered[tag])/1e3, per)
	}
	recKeys := func(f func(*roundResult) float64) (t float64) {
		for i := range rec {
			t += f(&rec[i])
		}
		return t
	}
	d.emit("core.self_us_per_get", self(opGet, float64(sum.opCount[opGet])), int(sum.opCount[opGet]))
	d.emit("core.self_us_per_put", self(opPut, float64(sum.opCount[opPut])), int(sum.opCount[opPut]))
	d.emit("core.self_us_per_batch_key", self(opBatch, recKeys(func(r *roundResult) float64 { return float64(r.batch.keys) })), int(sum.opCount[opBatch]))
	d.emit("core.self_us_per_scan_key", self(opScan, recKeys(func(r *roundResult) float64 {
		if d.bg != nil {
			return float64(r.scanKeys)
		}
		return float64(r.scan.keys)
	})), int(sum.opCount[opScan]))

	d.emit("alloc.allocs_per_put", ratio(float64(put.allocs), puts), int(puts))
	d.emit("alloc.frees", float64(all.frees), 1)

	var handlerNs, transportNs float64
	for _, v := range sum.handlerNs {
		handlerNs += v
	}
	for _, v := range sum.transportNs {
		transportNs += v
	}
	var recWall float64
	for i := range rec {
		r := &rec[i]
		recWall += float64(r.snapshot.wall + r.get.wall + r.put.wall + r.batch.wall + r.scan.wall)
	}
	var rootOps int64
	for _, c := range sum.opCount {
		rootOps += c
	}
	d.emit("sinfonia.handle_p50_us", quantile(sum.handlerNs, 0.5)/1e3, len(sum.handlerNs))
	d.emit("sinfonia.handle_busy_pct", 100*ratio(handlerNs, recWall*numMemnodes), len(sum.handlerNs))
	d.emit("sinfonia.rpcs_per_op", ratio(float64(len(sum.handlerNs)), float64(rootOps)), int(rootOps))
	d.emit("sinfonia.two_phase_share", ratio(float64(sum.handlerReqs[reqPrepare]), float64(sum.handlerReqs[reqPrepare]+sum.handlerReqs[reqExecCommit])), len(sum.handlerNs))
	d.emit("sinfonia.commits", float64(last.mem.Commits-first.mem.Commits), 1)
	d.emit("sinfonia.aborts", float64(last.mem.Aborts-first.mem.Aborts), 1)
	d.emit("sinfonia.busy_aborts", float64(last.mem.BusyAborts-first.mem.BusyAborts), 1)
	d.emit("sinfonia.items", float64(last.mem.Items), 1)

	written := float64(last.written - first.written)
	appends := float64(last.wal.Appends - first.wal.Appends)
	d.emit("wal.appends_per_key", ratio(appends, written), int(written))
	d.emit("wal.bytes_per_user_byte", ratio(float64(last.wal.Bytes-first.wal.Bytes), written*userBytes), int(written))
	d.emit("wal.syncs_per_commit", ratio(float64(last.wal.Syncs-first.wal.Syncs), appends), int(appends))
	d.emit("wal.fs_write_p50_us", quantile(sum.fsWriteNs, 0.5)/1e3, len(sum.fsWriteNs))
	d.emit("wal.fs_sync_p50_us", quantile(sum.fsSyncNs, 0.5)/1e3, len(sum.fsSyncNs))
	d.emit("wal.checkpoint_ms", overRounds(rounds, func(r *roundResult) float64 { return float64(r.checkpoint) / 1e6 }), len(rounds))
	d.emit("wal.checkpoint_bytes", ratio(float64(last.ckpt-first.ckpt), float64(len(rec))), len(rec))

	// The transport spans belong to rpcnet on the TCP workload and to the
	// in-process fabric on the others; the absent one reports 0.
	calls := float64(last.calls - first.calls)
	ops := float64(all.core.Ops)
	fabric, absent := "netsim", "rpcnet"
	if d.w.tcp {
		fabric, absent = absent, fabric
	}
	d.emit(fabric+".calls_per_op", ratio(calls, ops), int(ops))
	d.emit(fabric+".self_us_per_call", ratio((transportNs-handlerNs)/1e3, float64(len(sum.transportNs))), len(sum.transportNs))
	d.emit(absent+".calls_per_op", 0, 0)
	d.emit(absent+".self_us_per_call", 0, 0)
	if d.w.tcp {
		d.emit("rpcnet.call_p50_us", quantile(sum.transportNs, 0.5)/1e3, len(sum.transportNs))
		d.emit("rpcnet.wire_bytes_per_call", ratio(float64(last.wire-first.wire), calls), int(calls))
	} else {
		d.emit("rpcnet.call_p50_us", 0, 0)
		d.emit("rpcnet.wire_bytes_per_call", 0, 0)
	}

	getUs, putUs, batchUs := getOf.pool(base), putOf.pool(base), batchOf.pool(base)
	snapUs, chunkUs := snapshotOf.pool(base), scanOf.pool(base)
	if d.bg != nil {
		chunkUs = micros(bgLat)
	}
	d.emit("minuet.get_p99_us", quantile(getUs, 0.99), len(getUs))
	d.emit("minuet.put_p99_us", quantile(putUs, 0.99), len(putUs))
	d.emit("minuet.batch_p50_ms", quantile(batchUs, 0.5)/1e3, len(batchUs))
	d.emit("minuet.batch_p99_ms", quantile(batchUs, 0.99)/1e3, len(batchUs))
	d.emit("minuet.scan_chunk_p50_us", quantile(chunkUs, 0.5), len(chunkUs))
	d.emit("minuet.snapshot_p99_us", quantile(snapUs, 0.99), len(snapUs))
	d.emit("minuet.alloc_b_per_get", ratio(float64(get.allocBytes), gets), int(gets))
	d.emit("minuet.alloc_b_per_put", ratio(float64(put.allocBytes), puts), int(puts))
	d.emit("minuet.alloc_b_per_batch_key", ratio(float64(batch.allocBytes), batchKeys), int(batchKeys))
	d.emit("minuet.alloc_b_per_scan_key", ratio(float64(scan.allocBytes), scanKeys), int(scanKeys))
	d.emit("minuet.forced_gc_ms", float64(last.forcedGC-first.forcedGC)/1e6, len(rounds)*5)
	d.emit("minuet.rss_peak_mb", rssPeakMB(), 1)
	// Overhead of recording: each recording round's put median against the
	// mean of its two plain neighbours'. Puts, because their cost is flat
	// over the run on every workload (the branching workload's gets slow
	// down in steps as the version tree deepens) and they make two calls.
	var over []float64
	for i := 1; i+1 < len(rounds); i += 2 {
		around := (putOf.p50(&rounds[i-1]) + putOf.p50(&rounds[i+1])) / 2
		over = append(over, 100*(ratio(putOf.p50(&rounds[i]), around)-1))
	}
	d.emit("minuet.trace_overhead_pct", median(over), putOf.samples(rec))

	d.probes()
}

// rssPeakMB is the process's peak resident set as the kernel reports it,
// falling back to what the Go runtime obtained from the system.
func rssPeakMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
