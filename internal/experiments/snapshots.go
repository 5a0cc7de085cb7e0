package experiments

import (
	"io"
	"time"

	"minuet/internal/core"
	"minuet/internal/metrics"
	"minuet/internal/ycsb"
)

// ---------------------------------------------------------------- Fig 14 --

// Fig14Result is the update-throughput time series around one snapshot.
type Fig14Result struct {
	BucketWidth time.Duration
	OpsPerSec   []float64 // one entry per bucket
	SnapshotAt  time.Duration
}

// Fig14 reproduces Figure 14: a 100% update workload runs continuously; a
// single snapshot is requested partway through; the per-interval update
// throughput shows the copy-on-write dip and recovery.
func Fig14(sc Scale, w io.Writer) (*Fig14Result, error) {
	machines := sc.Machines[len(sc.Machines)-1]
	cl, dbs, err := loadMinuet(sc, machines, 1)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	total := 5 * sc.Duration
	width := total / 20
	snapshotAt := total / 4
	ts := metrics.NewTimeSeries(width, 20)
	wait := startPools(total, &ycsb.Runner{
		DB:      seriesDB{DB: dbs[0], ts: ts},
		W:       ycsb.Workload{UpdateProp: 1, RecordCount: sc.Preload},
		Threads: sc.ThreadsPerMachine * machines,
		Seed:    500,
	})
	time.Sleep(snapshotAt)
	_, _, err = cl.Proxy(0).Snapshot(0)
	wait()
	if err != nil {
		return nil, err
	}

	res := &Fig14Result{BucketWidth: width, SnapshotAt: snapshotAt}
	for _, n := range ts.Buckets() {
		res.OpsPerSec = append(res.OpsPerSec, float64(n)/width.Seconds())
	}
	fprintf(w, "# Fig 14: update throughput around one snapshot (%d machines, snapshot at t=%v)\n", machines, snapshotAt)
	fprintf(w, "%-10s %-14s\n", "t", "ops/s")
	for i, v := range res.OpsPerSec {
		fprintf(w, "%-10v %-14.0f\n", time.Duration(i)*width, v)
	}
	return res, nil
}

// seriesDB counts Fig 14's completed updates into its time series.
type seriesDB struct {
	ycsb.DB
	ts *metrics.TimeSeries
}

func (s seriesDB) Update(key, val []byte) error {
	err := s.DB.Update(key, val)
	if err == nil {
		s.ts.Add(1)
	}
	return err
}

// ---------------------------------------------------------------- Fig 15 --

// Fig15Row is one point of scan throughput vs. scan length, with or without
// borrowed snapshots.
type Fig15Row struct {
	ScanLength int
	Borrow     bool
	ScansPerS  float64
}

// Fig15 reproduces Figure 15: 3 scan clients + 12 update clients (scaled by
// ThreadsPerMachine/16); each scan creates a snapshot through the SCS —
// with borrowing ON, short-scan throughput improves by an order of
// magnitude because concurrent requests share snapshots.
func Fig15(sc Scale, w io.Writer) ([]Fig15Row, error) {
	machines := sc.Machines[len(sc.Machines)-1]
	lengths := []int{sc.ScanLength / 100, sc.ScanLength / 10, sc.ScanLength}
	fprintf(w, "# Fig 15: scan throughput vs. scan length (scans/s), %d machines\n", machines)
	fprintf(w, "%-10s %-14s %-14s\n", "keys", "borrowed", "no-borrow")

	scanners, updaters := scanSplit(machines * sc.ThreadsPerMachine)
	var rows []Fig15Row
	for _, L := range lengths {
		if L < 1 {
			L = 1
		}
		scL := sc
		scL.ScanLength = L
		var per [2]float64
		for i, borrow := range []bool{true, false} {
			rep, _, err := scansBesideUpdates(scL, machines, scanners, updaters, func(scs *core.SCS) { scs.AllowBorrow = borrow })
			if err != nil {
				return nil, err
			}
			per[i] = rep.Throughput
			rows = append(rows, Fig15Row{ScanLength: L, Borrow: borrow, ScansPerS: per[i]})
		}
		fprintf(w, "%-10d %-14.1f %-14.1f\n", L, per[0], per[1])
	}
	return rows, nil
}

// ---------------------------------------------------------------- Fig 16 --

// Fig16Row is one point of scan scalability.
type Fig16Row struct {
	Machines    int
	KeysPerSec  float64
	ScansPerSec float64
}

// Fig16 reproduces Figure 16: long scans (snapshot interval k fixed to a
// modest staleness) with 80% update / 20% scan clients, swept over cluster
// size; the paper's curve is almost perfectly linear.
func Fig16(sc Scale, w io.Writer) ([]Fig16Row, error) {
	k := sc.Duration / 2 // the paper's k=30 s of a 60 s window, scaled
	fprintf(w, "# Fig 16: scan throughput vs. scale (avg keys scanned/s), k=%v, scan=%d keys\n", k, sc.ScanLength)
	fprintf(w, "%-9s %-16s %-12s\n", "machines", "keys/s", "scans/s")
	var rows []Fig16Row
	for _, m := range sc.Machines {
		scanners, updaters := scanSplit(m * sc.ThreadsPerMachine)
		rep, _, err := scansBesideUpdates(sc, m, scanners, updaters, func(scs *core.SCS) { scs.MinInterval = k })
		if err != nil {
			return nil, err
		}
		kps, sps := float64(rep.KeysScanned)/rep.Duration.Seconds(), rep.Throughput
		rows = append(rows, Fig16Row{Machines: m, KeysPerSec: kps, ScansPerSec: sps})
		fprintf(w, "%-9d %-16.0f %-12.2f\n", m, kps, sps)
	}
	return rows, nil
}

// ---------------------------------------------------------------- Fig 17 --

// Fig17Row is one point of update throughput with concurrent scans.
type Fig17Row struct {
	Machines    int
	K           time.Duration // minimum time between snapshots; -1 = no scans
	NoScans     bool
	UpdatesPerS float64
}

// Fig17 reproduces Figure 17: update throughput as a function of cluster
// size for several snapshot intervals k, plus the no-scans ceiling. Small k
// means frequent snapshot creation and heavy copy-on-write, collapsing
// update throughput; large k approaches the no-scan line.
func Fig17(sc Scale, w io.Writer) ([]Fig17Row, error) {
	ks := []time.Duration{0, sc.Duration / 8, sc.Duration / 2, sc.Duration}
	fprintf(w, "# Fig 17: update throughput (x1000 ops/s) with concurrent scans\n")
	fprintf(w, "%-9s %-11s %-11s %-11s %-11s %-11s\n", "machines", "k=0", "k=d/8", "k=d/2", "k=d", "no-scans")
	var rows []Fig17Row
	for _, m := range sc.Machines {
		total := m * sc.ThreadsPerMachine
		updaters := total * 4 / 5
		line := make([]float64, 0, len(ks)+1)
		for _, k := range ks {
			_, rep, err := scansBesideUpdates(sc, m, total-updaters, updaters, func(scs *core.SCS) { scs.MinInterval = k })
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig17Row{Machines: m, K: k, UpdatesPerS: rep.Throughput})
			line = append(line, rep.Throughput)
		}
		// No-scans ceiling: every client updates.
		_, rep, err := scansBesideUpdates(sc, m, 0, total, func(*core.SCS) {})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig17Row{Machines: m, K: -1, NoScans: true, UpdatesPerS: rep.Throughput})
		line = append(line, rep.Throughput)
		fprintf(w, "%-9d %-11.1f %-11.1f %-11.1f %-11.1f %-11.1f\n",
			m, line[0]/1000, line[1]/1000, line[2]/1000, line[3]/1000, line[4]/1000)
	}
	return rows, nil
}

// ---------------------------------------------------------------- Fig 18 --

// Fig18Row is one point of scan latency vs. snapshot interval.
type Fig18Row struct {
	K           time.Duration
	WithUpdates bool
	MeanLatency time.Duration
}

// Fig18 reproduces Figure 18: mean scan latency as a function of k, with
// and without a concurrent update workload. The paper's observation — scan
// latency with updates never exceeds ~1.4x the latency without — verifies
// that snapshots isolate scans from the OLTP load.
func Fig18(sc Scale, w io.Writer) ([]Fig18Row, error) {
	machines := sc.Machines[len(sc.Machines)-1]
	ks := []time.Duration{0, sc.Duration / 8, sc.Duration / 4, sc.Duration / 2, sc.Duration}
	fprintf(w, "# Fig 18: scan latency vs. snapshot interval k (%d machines, scan=%d keys)\n", machines, sc.ScanLength)
	fprintf(w, "%-10s %-16s %-16s\n", "k", "with-updates", "no-updates")
	scanners, updaters := scanSplit(machines * sc.ThreadsPerMachine)
	var rows []Fig18Row
	for _, k := range ks {
		var per [2]time.Duration
		for i, upd := range []int{updaters, 0} {
			rep, _, err := scansBesideUpdates(sc, machines, scanners, upd, func(scs *core.SCS) { scs.MinInterval = k })
			if err != nil {
				return nil, err
			}
			lat := rep.PerOp[ycsb.OpScan].Mean // the snapshot request plus the scan
			per[i] = lat
			rows = append(rows, Fig18Row{K: k, WithUpdates: upd > 0, MeanLatency: lat})
		}
		fprintf(w, "%-10v %-16v %-16v\n", k, per[0], per[1])
	}
	return rows, nil
}

// --------------------------------------------------------------- drivers --

// scanSplit is the paper's partition of total clients for Figs 15, 16 and
// 18: 20% scan (at least one), 80% update.
func scanSplit(total int) (scanners, updaters int) {
	return max(1, total/5), total * 4 / 5
}

// scansBesideUpdates runs scanners scan clients (sc.ScanLength keys per
// scan) beside updaters update clients for one window of sc.Duration, on a
// freshly loaded cluster whose snapshot creation service setup configures
// first, and returns the two pools' reports. A pool of no clients is not
// run.
func scansBesideUpdates(sc Scale, machines, scanners, updaters int, setup func(*core.SCS)) (scan, upd ycsb.Report, err error) {
	cl, dbs, err := loadMinuet(sc, machines, 1)
	if err != nil {
		return scan, upd, err
	}
	defer cl.Close()
	setup(cl.SCS(0))
	reps := startPools(sc.Duration,
		&ycsb.Runner{
			DB:      dbs[0],
			W:       ycsb.Workload{ScanProp: 1, ScanLength: sc.ScanLength, RecordCount: sc.Preload},
			Threads: scanners,
			Seed:    1300,
		},
		&ycsb.Runner{
			DB:      dbs[0],
			W:       ycsb.Workload{UpdateProp: 1, RecordCount: sc.Preload},
			Threads: updaters,
			Seed:    1700,
		},
	)()
	return reps[0], reps[1], nil
}
