package main

// workload is one deployment of the same operation mix. The four differ in
// transport, durability and tree mode, never in the operations issued.
type workload struct {
	name      string
	why       string // one line; BENCHMARK.json carries the same text
	tcp       bool   // memnodes behind rpcnet on loopback instead of netsim.Local
	durable   bool   // memnodes opened over a write-ahead log on wal.MemFS
	branching bool   // β=2 version tree: forks, a what-if clone, a concurrent scanner
	procs     int    // GOMAXPROCS: one per client goroutine
	ops       sliceOps
}

// sliceOps is the fixed work of one round's slices at the reference run
// length (refSeconds). Counts come from this table and the -seconds
// argument only, never from a clock, so two commits do identical work.
type sliceOps struct {
	// snapshots is the length of the snapshot slice: create-then-one-put
	// pairs on a linear tree, forks (two CreateBranch calls: mainline
	// continuation + what-if clone) on a branching one. It does not scale
	// with -seconds: it bounds how much state a round adds.
	snapshots int
	gets      int // point lookups
	puts      int // single-key updates
	batches   int // atomic batches of batchKeys keys
	scans     int // full passes over the round's frozen version (linear trees)
}

const (
	refSeconds   = 20     // the run length the table below is sized for
	numRecords   = 100000 // preloaded ycsb.Key/ycsb.Value records (14 B + 8 B)
	userBytes    = 22     // per record
	preloadBatch = 512
	batchKeys    = 64
	scanChunk    = 1000
	warmRounds   = 1 // discarded
	numRounds    = 7 // measured; a run's value is the median over them
	numSetups    = 3 // stack build + preload, repeated; setup_s is the median

	// A -trace run has the decorators installed on every seam and alternates
	// plain rounds (decorators switched off) with recording ones: P R P R P.
	// trace_overhead_pct compares neighbours inside one process.
	traceBaseRounds = 3
	traceRounds     = 2
	probeIters      = 5000 // timed calls per layer probe
)

// Sized on the 2-vCPU sandbox so that a slice takes roughly half a second
// and a whole run, three set-ups included, stays near 30 s.
var workloads = []workload{
	{
		name:  "oltp_mem",
		procs: 1,
		why:   "2 volatile memnodes on netsim.Local, linear tree, 1 client: transport and log do nothing, so core/dyntx/sinfonia CPU is the whole cost",
		ops:   sliceOps{snapshots: 200, gets: 60000, puts: 36000, batches: 450, scans: 50},
	},
	{
		name:  "oltp_tcp",
		procs: 1,
		why:   "same ops, memnodes behind rpcnet on loopback TCP: framing and the gob envelope dominate; minus oltp_mem, op for op, is the price of the transport",
		tcp:   true,
		ops:   sliceOps{snapshots: 200, gets: 5000, puts: 2500, batches: 150, scans: 4},
	},
	{
		name:    "oltp_wal",
		procs:   1,
		why:     "as oltp_mem but memnodes log to wal.MemFS with fsync on: writes pay encode, append and group commit while gets and scans must equal oltp_mem",
		durable: true,
		ops:     sliceOps{snapshots: 200, gets: 54000, puts: 25000, batches: 260, scans: 46},
	},
	{
		name:      "htap_branch",
		procs:     2,
		why:       "branching tree on netsim.Local: get/put/batch address a what-if clone while a second client scans the frozen parent; the only workload with two clients",
		branching: true,
		ops:       sliceOps{snapshots: 12, gets: 14000, puts: 36000, batches: 450},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// plan is everything that sizes a run. The standard plan comes from the
// tables above; tests shrink it.
type plan struct {
	records     int
	setups      int
	warmRounds  int
	rounds      int // measured with no recording
	traceRounds int // measured with recording on (-trace runs only)
	probeIters  int // timed calls per layer probe (-trace runs only)
	ops         sliceOps
}

// standardPlan scales the workload's slice table linearly with the
// requested run length.
func standardPlan(w *workload, seconds int, traced bool) plan {
	scale := func(n int) int {
		if n == 0 {
			return 0
		}
		if n = n * seconds / refSeconds; n < 1 {
			n = 1
		}
		return n
	}
	p := plan{
		records:    numRecords,
		setups:     numSetups,
		warmRounds: warmRounds,
		rounds:     numRounds,
		ops: sliceOps{
			snapshots: w.ops.snapshots,
			gets:      scale(w.ops.gets),
			puts:      scale(w.ops.puts),
			batches:   scale(w.ops.batches),
			scans:     scale(w.ops.scans),
		},
	}
	if traced {
		p.setups, p.rounds, p.traceRounds, p.probeIters = 1, traceBaseRounds, traceRounds, probeIters
	}
	return p
}

// metricDef names one reported number. bound is the share of the parent's
// median by which an end-to-end metric may worsen; layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd lists what a user of the tree sees, the same seven on every
// workload. The eighth end-to-end number, the share of failed operations,
// must stay 0 and so travels in the result's attempted/failed fields.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"get_p50_us", "us", "lower", 0.25},
	{"put_p50_us", "us", "lower", 0.25},
	{"batch_keys_per_s", "1/s", "higher", 0.25},
	{"scan_keys_per_s", "1/s", "higher", 0.25},
	{"snapshot_p50_us", "us", "lower", 0.25},
	{"mem_bytes_per_user_byte", "B/B", "lower", 0.02},
}

// perLayer lists the traced run's numbers, named <module>.<metric>.
var perLayer = []metricDef{
	{"core.roundtrips_per_get", "count/op", "lower", 0},
	{"core.roundtrips_per_put", "count/op", "lower", 0},
	{"core.roundtrips_per_batch_key", "count/key", "lower", 0},
	{"core.roundtrips_per_scan_key", "count/key", "lower", 0},
	{"core.cache_hit_ratio", "ratio", "higher", 0},
	{"core.retries_per_op", "count/op", "lower", 0},
	{"core.cow_nodes_per_put", "count/op", "lower", 0},
	{"core.splits", "count", "lower", 0},
	{"core.discretionary_copies", "count", "lower", 0},
	{"core.self_us_per_get", "us/op", "lower", 0},
	{"core.self_us_per_put", "us/op", "lower", 0},
	{"core.self_us_per_batch_key", "us/key", "lower", 0},
	{"core.self_us_per_scan_key", "us/key", "lower", 0},

	{"dyntx.rw_commit_us", "us", "lower", 0},

	{"alloc.allocs_per_put", "count/op", "lower", 0},
	{"alloc.frees", "count", "higher", 0},

	{"sinfonia.handle_p50_us", "us", "lower", 0},
	{"sinfonia.handle_busy_pct", "%", "lower", 0},
	{"sinfonia.rpcs_per_op", "count/op", "lower", 0},
	{"sinfonia.two_phase_share", "ratio", "lower", 0},
	{"sinfonia.commits", "count", "lower", 0},
	{"sinfonia.aborts", "count", "lower", 0},
	{"sinfonia.busy_aborts", "count", "lower", 0},
	{"sinfonia.items", "count", "lower", 0},
	{"sinfonia.exec_commit_direct_us", "us", "lower", 0},

	{"wal.appends_per_key", "count/key", "lower", 0},
	{"wal.bytes_per_user_byte", "B/B", "lower", 0},
	{"wal.syncs_per_commit", "count/op", "lower", 0},
	{"wal.fs_write_p50_us", "us", "lower", 0},
	{"wal.fs_sync_p50_us", "us", "lower", 0},
	{"wal.checkpoint_ms", "ms", "lower", 0},
	{"wal.checkpoint_bytes", "B", "lower", 0},
	{"wal.append_commit_us", "us", "lower", 0},

	{"rpcnet.call_p50_us", "us", "lower", 0},
	{"rpcnet.self_us_per_call", "us/op", "lower", 0},
	{"rpcnet.calls_per_op", "count/op", "lower", 0},
	{"rpcnet.wire_bytes_per_call", "B/op", "lower", 0},
	{"rpcnet.echo_p50_us", "us", "lower", 0},
	{"rpcnet.echo_4k_p50_us", "us", "lower", 0},

	{"netsim.calls_per_op", "count/op", "lower", 0},
	{"netsim.self_us_per_call", "us/op", "lower", 0},

	{"minuet.get_p99_us", "us", "lower", 0},
	{"minuet.put_p99_us", "us", "lower", 0},
	{"minuet.batch_p50_ms", "ms", "lower", 0},
	{"minuet.batch_p99_ms", "ms", "lower", 0},
	{"minuet.scan_chunk_p50_us", "us", "lower", 0},
	{"minuet.snapshot_p99_us", "us", "lower", 0},
	{"minuet.alloc_b_per_get", "B/op", "lower", 0},
	{"minuet.alloc_b_per_put", "B/op", "lower", 0},
	{"minuet.alloc_b_per_batch_key", "B/key", "lower", 0},
	{"minuet.alloc_b_per_scan_key", "B/key", "lower", 0},
	{"minuet.forced_gc_ms", "ms", "lower", 0},
	{"minuet.rss_peak_mb", "MB", "lower", 0},
	{"minuet.trace_overhead_pct", "%", "lower", 0},
}
