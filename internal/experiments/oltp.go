package experiments

import (
	"io"
	"time"

	"minuet/internal/cdb"
	"minuet/internal/cluster"
	"minuet/internal/core"
	"minuet/internal/dyntx"
	"minuet/internal/metrics"
	"minuet/internal/ycsb"
)

// ---------------------------------------------------------------- Fig 10 --

// Fig10Row is one point of "Minuet Load Throughput vs. Scale": loading
// uniformly random keys into an empty B-tree with dirty traversals on or
// off.
type Fig10Row struct {
	Machines   int
	Dirty      bool
	Throughput float64 // ops/sec
	MeanLat    time.Duration
	P95Lat     time.Duration
}

// Fig10 reproduces Figure 10. For each scale it loads a near-empty tree
// for sc.Duration with a 100% insert workload, once with dirty traversals
// ON and once OFF (the Aguilera et al. configuration with its replicated
// sequence-number table).
//
// Scaling note: the paper's 60 s windows amortize the first moments of the
// load, when every insert lands in the handful of leaves of a brand-new
// tree and optimistic concurrency degenerates into a retry storm. At this
// harness's second-long windows that transient would dominate (and at high
// thread counts, drown) the measurement, so each run first seeds the tree
// with a few keys per client thread — putting the measured window in the
// same steady-load regime that dominates the paper's figure.
func Fig10(sc Scale, w io.Writer) ([]Fig10Row, error) {
	fprintf(w, "# Fig 10: Minuet load throughput vs. scale (x1000 ops/s)\n")
	fprintf(w, "%-9s %-18s %-18s\n", "machines", "dirty ON", "dirty OFF")
	var rows []Fig10Row
	for _, m := range sc.Machines {
		var per [2]Fig10Row
		for i, dirty := range []bool{true, false} {
			cl, err := newMinuet(sc, m, dirty, 1)
			if err != nil {
				return nil, err
			}
			defer cl.Close()
			db, err := newMinuetDB(cl, 0)
			if err != nil {
				return nil, err
			}
			seed := uint64(sc.ThreadsPerMachine * m * 64)
			if err := ycsb.Load(db, 0, seed, 2*m); err != nil {
				return nil, err
			}
			runner := &ycsb.Runner{
				DB:      db,
				W:       ycsb.Workload{InsertProp: 1.0, RecordCount: seed},
				Threads: sc.ThreadsPerMachine * m,
				Seed:    1,
			}
			rep := runner.Run(sc.Duration)
			row := Fig10Row{
				Machines:   m,
				Dirty:      dirty,
				Throughput: rep.Throughput,
				MeanLat:    rep.PerOp[ycsb.OpInsert].Mean,
				P95Lat:     rep.PerOp[ycsb.OpInsert].P95,
			}
			per[i] = row
			rows = append(rows, row)
			cl.Close()
		}
		fprintf(w, "%-9d %-18.1f %-18.1f\n", m, per[0].Throughput/1000, per[1].Throughput/1000)
	}
	return rows, nil
}

// ---------------------------------------------------------------- Fig 11 --

// Fig11Row is one point of the latency-throughput trade-off for one system.
type Fig11Row struct {
	System     string // "minuet" | "cdb"
	Offered    float64
	Throughput float64
	ReadMean   time.Duration
	ReadP95    time.Duration
	UpdateMean time.Duration
	UpdateP95  time.Duration
}

// Fig11 reproduces Figure 11: mean and 95th-percentile latency of reads and
// updates as offered load increases, for Minuet and CDB on a fixed-size
// cluster (the paper uses 10 hosts; here sc.Machines' largest entry).
func Fig11(sc Scale, w io.Writer) ([]Fig11Row, error) {
	machines := sc.Machines[len(sc.Machines)-1]
	workload := ycsb.Workload{ReadProp: 0.5, UpdateProp: 0.5, RecordCount: sc.Preload}

	// Establish each system's peak throughput with an open loop, then walk
	// fractions of it.
	fractions := []float64{0.2, 0.4, 0.6, 0.8, 0.9, 1.0}
	var rows []Fig11Row

	fprintf(w, "# Fig 11: latency vs. throughput, %d machines, %d keys\n", machines, sc.Preload)
	fprintf(w, "%-8s %-12s %-12s %-11s %-11s %-11s %-11s\n",
		"system", "offered/s", "actual/s", "read-mean", "read-p95", "upd-mean", "upd-p95")

	// Minuet.
	{
		cl, err := newMinuet(sc, machines, true, 1)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		db, err := newMinuetDB(cl, 0)
		if err != nil {
			return nil, err
		}
		if err := ycsb.Load(db, 0, sc.Preload, 4*machines); err != nil {
			return nil, err
		}
		peak := (&ycsb.Runner{DB: db, W: workload, Threads: sc.ThreadsPerMachine * machines, Seed: 2}).Run(sc.Duration).Throughput
		for _, f := range fractions {
			r := &ycsb.Runner{
				DB: db, W: workload,
				Threads:         sc.ThreadsPerMachine * machines,
				TargetOpsPerSec: peak * f,
				Seed:            3,
			}
			rep := r.Run(sc.Duration)
			row := Fig11Row{
				System: "minuet", Offered: peak * f, Throughput: rep.Throughput,
				ReadMean: rep.PerOp[ycsb.OpRead].Mean, ReadP95: rep.PerOp[ycsb.OpRead].P95,
				UpdateMean: rep.PerOp[ycsb.OpUpdate].Mean, UpdateP95: rep.PerOp[ycsb.OpUpdate].P95,
			}
			rows = append(rows, row)
			fprintf(w, "%-8s %-12.0f %-12.0f %-11v %-11v %-11v %-11v\n",
				row.System, row.Offered, row.Throughput, row.ReadMean, row.ReadP95, row.UpdateMean, row.UpdateP95)
		}
	}

	// CDB (the paper drives it with many more client threads: 512 vs 64).
	{
		db := newCDB(sc, machines, 1)
		defer db.Stop()
		adapter := &cdbDB{db: db}
		if err := ycsb.Load(adapter, 0, sc.Preload, 8*machines); err != nil {
			return nil, err
		}
		threads := 8 * sc.ThreadsPerMachine * machines
		peak := (&ycsb.Runner{DB: adapter, W: workload, Threads: threads, Seed: 4}).Run(sc.Duration).Throughput
		for _, f := range fractions {
			r := &ycsb.Runner{DB: adapter, W: workload, Threads: threads, TargetOpsPerSec: peak * f, Seed: 5}
			rep := r.Run(sc.Duration)
			row := Fig11Row{
				System: "cdb", Offered: peak * f, Throughput: rep.Throughput,
				ReadMean: rep.PerOp[ycsb.OpRead].Mean, ReadP95: rep.PerOp[ycsb.OpRead].P95,
				UpdateMean: rep.PerOp[ycsb.OpUpdate].Mean, UpdateP95: rep.PerOp[ycsb.OpUpdate].P95,
			}
			rows = append(rows, row)
			fprintf(w, "%-8s %-12.0f %-12.0f %-11v %-11v %-11v %-11v\n",
				row.System, row.Offered, row.Throughput, row.ReadMean, row.ReadP95, row.UpdateMean, row.UpdateP95)
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------- Fig 12 --

// Fig12Row is one point of single-key scalability for one system and one
// operation type.
type Fig12Row struct {
	System     string
	Op         string // read | update | insert
	Machines   int
	Throughput float64
}

// Fig12 reproduces Figure 12: single-key read/update/insert peak throughput
// as the cluster grows, for Minuet and CDB.
func Fig12(sc Scale, w io.Writer) ([]Fig12Row, error) {
	ops := []struct {
		name string
		w    ycsb.Workload
	}{
		{"read", ycsb.Workload{ReadProp: 1}},
		{"update", ycsb.Workload{UpdateProp: 1}},
		{"insert", ycsb.Workload{InsertProp: 1}},
	}
	var rows []Fig12Row
	fprintf(w, "# Fig 12: single-key throughput vs. scale (x1000 ops/s)\n")
	fprintf(w, "%-9s %-9s %-12s %-12s\n", "machines", "op", "minuet", "cdb")
	for _, m := range sc.Machines {
		cl, err := newMinuet(sc, m, true, 1)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		mdb, err := newMinuetDB(cl, 0)
		if err != nil {
			return nil, err
		}
		if err := ycsb.Load(mdb, 0, sc.Preload, 4*m); err != nil {
			return nil, err
		}
		cdbase := newCDB(sc, m, 1)
		cadapter := &cdbDB{db: cdbase}
		if err := ycsb.Load(cadapter, 0, sc.Preload, 8*m); err != nil {
			return nil, err
		}
		for _, op := range ops {
			wl := op.w
			wl.RecordCount = sc.Preload
			mres := (&ycsb.Runner{DB: mdb, W: wl, Threads: sc.ThreadsPerMachine * m, Seed: 6}).Run(sc.Duration)
			cres := (&ycsb.Runner{DB: cadapter, W: wl, Threads: 8 * sc.ThreadsPerMachine * m, Seed: 7}).Run(sc.Duration)
			rows = append(rows,
				Fig12Row{System: "minuet", Op: op.name, Machines: m, Throughput: mres.Throughput},
				Fig12Row{System: "cdb", Op: op.name, Machines: m, Throughput: cres.Throughput},
			)
			fprintf(w, "%-9d %-9s %-12.1f %-12.1f\n", m, op.name, mres.Throughput/1000, cres.Throughput/1000)
		}
		cdbase.Stop()
		cl.Close()
	}
	return rows, nil
}

// ---------------------------------------------------------------- Fig 13 --

// Fig13Row is one point of multi-index (dual-key) transaction scalability.
type Fig13Row struct {
	System     string
	Op         string // read | update | insert
	Machines   int
	Throughput float64
}

// Fig13 reproduces Figure 13: transactions that atomically touch one key in
// each of two indexes. Minuet uses one dynamic transaction across two
// B-trees (committing via 2PC at up to two memnodes); CDB's stored
// procedures become multi-partition transactions that engage every server,
// which is why its curve collapses.
func Fig13(sc Scale, w io.Writer) ([]Fig13Row, error) {
	// The paper preloads 10 M keys per table (vs 100 M for single-index
	// experiments); keep the full preload per table so that lock collisions
	// on leaves stay as rare as they are at the paper's scale.
	records := sc.Preload
	if records == 0 {
		records = 1000
	}
	var rows []Fig13Row
	fprintf(w, "# Fig 13: dual-key transaction throughput vs. scale (x1000 ops/s)\n")
	fprintf(w, "%-9s %-9s %-12s %-12s\n", "machines", "op", "minuet", "cdb")

	type opKind int
	const (
		op2Read opKind = iota
		op2Update
		op2Insert
	)
	names := map[opKind]string{op2Read: "read", op2Update: "update", op2Insert: "insert"}

	for _, m := range sc.Machines {
		// Minuet: two trees on one cluster.
		cl, err := newMinuet(sc, m, true, 2)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		mdbA, err := newMinuetDB(cl, 0)
		if err != nil {
			return nil, err
		}
		mdbB, err := newMinuetDB(cl, 1)
		if err != nil {
			return nil, err
		}
		if err := ycsb.Load(mdbA, 0, records, 4*m); err != nil {
			return nil, err
		}
		if err := ycsb.Load(mdbB, 0, records, 4*m); err != nil {
			return nil, err
		}

		// CDB: two tables.
		cdbase := newCDB(sc, m, 2)
		for tbl := 0; tbl < 2; tbl++ {
			if err := ycsb.Load(&cdbDB{db: cdbase, tbl: tbl}, 0, records, 8*m); err != nil {
				return nil, err
			}
		}

		for _, kind := range []opKind{op2Read, op2Update, op2Insert} {
			mtp := runDualKeyMinuet(cl, kind == op2Read, sc.ThreadsPerMachine*m, records, sc.Duration)
			ctp := runDualKeyCDB(cdbase, kind == op2Read, 8*sc.ThreadsPerMachine*m, records, sc.Duration)
			rows = append(rows,
				Fig13Row{System: "minuet", Op: names[kind], Machines: m, Throughput: mtp},
				Fig13Row{System: "cdb", Op: names[kind], Machines: m, Throughput: ctp},
			)
			fprintf(w, "%-9d %-9s %-12.1f %-12.1f\n", m, names[kind], mtp/1000, ctp/1000)
		}
		cdbase.Stop()
		cl.Close()
	}
	return rows, nil
}

// runDualKeyMinuet measures Minuet transactions per second that atomically
// touch one key in each of two B-trees.
func runDualKeyMinuet(cl *cluster.Cluster, readOnly bool, threads int, records uint64, d time.Duration) float64 {
	cnt := metrics.NewCounter()
	stop := time.Now().Add(d)
	done := make(chan struct{}, threads)
	for t := 0; t < threads; t++ {
		go func(t int) {
			defer func() { done <- struct{}{} }()
			r := newRand(int64(t) + 100)
			proxy := cl.Proxy(t % cl.Machines())
			btA := proxy.MustTree(0)
			btB := proxy.MustTree(1)
			for time.Now().Before(stop) {
				kA := ycsb.Key(uint64(r.Int63n(int64(records))))
				kB := ycsb.Key(uint64(r.Int63n(int64(records))))
				err := core.RunMulti(proxy.Client, []*core.BTree{btA, btB}, func(tx *dyntx.Txn) error {
					if readOnly {
						if _, _, err := btA.GetTxn(tx, kA); err != nil {
							return err
						}
						_, _, err := btB.GetTxn(tx, kB)
						return err
					}
					if err := btA.PutTxn(tx, kA, ycsb.Value(1)); err != nil {
						return err
					}
					return btB.PutTxn(tx, kB, ycsb.Value(2))
				})
				if err == nil {
					cnt.Add(1)
				}
			}
		}(t)
	}
	for t := 0; t < threads; t++ {
		<-done
	}
	return cnt.Rate()
}

// runDualKeyCDB measures CDB multi-partition transactions per second that
// atomically touch one key in each of two tables.
func runDualKeyCDB(db *cdb.DB, readOnly bool, threads int, records uint64, d time.Duration) float64 {
	cnt := metrics.NewCounter()
	stop := time.Now().Add(d)
	done := make(chan struct{}, threads)
	for t := 0; t < threads; t++ {
		go func(t int) {
			defer func() { done <- struct{}{} }()
			r := newRand(int64(t) + 200)
			for time.Now().Before(stop) {
				kA := ycsb.Key(uint64(r.Int63n(int64(records))))
				kB := ycsb.Key(uint64(r.Int63n(int64(records))))
				var err error
				if readOnly {
					_, err = db.MultiRead([]int{0, 1}, [][]byte{kA, kB})
				} else {
					err = db.MultiUpsert([]int{0, 1}, [][]byte{kA, kB}, [][]byte{ycsb.Value(1), ycsb.Value(2)})
				}
				if err == nil {
					cnt.Add(1)
				}
			}
		}(t)
	}
	for t := 0; t < threads; t++ {
		<-done
	}
	return cnt.Rate()
}
