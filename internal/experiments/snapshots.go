package experiments

import (
	"io"
	"sync"
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

	total := 5 * sc.Duration
	width := total / 20
	snapshotAt := total / 4
	ts := metrics.NewTimeSeries(width, 20)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	threads := sc.ThreadsPerMachine * machines
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			r := newRand(int64(t) + 500)
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := uint64(r.Int63n(int64(sc.Preload)))
				if db.Update(ycsb.Key(i), ycsb.Value(i)) == nil {
					ts.Add(1)
				}
			}
		}(t)
	}

	time.Sleep(snapshotAt)
	if _, _, err := cl.Proxy(0).Snapshot(0); err != nil {
		close(stop)
		wg.Wait()
		return nil, err
	}
	time.Sleep(total - snapshotAt)
	close(stop)
	wg.Wait()

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

	var rows []Fig15Row
	for _, L := range lengths {
		if L < 1 {
			L = 1
		}
		var per [2]float64
		for i, borrow := range []bool{true, false} {
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
			cl.SCS(0).AllowBorrow = borrow

			stop := make(chan struct{})
			// 12/15 of clients update, 3/15 scan (the paper's partition).
			updaters := updaterPool(db, sc.Preload, machines*sc.ThreadsPerMachine*4/5, stop)
			scanThreads := machines * sc.ThreadsPerMachine / 5
			if scanThreads < 1 {
				scanThreads = 1
			}
			cnt := metrics.NewCounter()
			var wg sync.WaitGroup
			deadline := time.Now().Add(sc.Duration)
			for t := 0; t < scanThreads; t++ {
				wg.Add(1)
				go func(t int) {
					defer wg.Done()
					r := newRand(int64(t) + 900)
					bt := db.trees[t%len(db.trees)]
					for time.Now().Before(deadline) {
						snap, _, err := cl.Proxy(t % machines).Snapshot(0)
						if err != nil {
							continue
						}
						maxStart := int64(sc.Preload) - int64(L)
						if maxStart < 1 {
							maxStart = 1
						}
						start := ycsb.Key(uint64(r.Int63n(maxStart)))
						if _, err := bt.ScanSnapshot(snap, start, L); err == nil {
							cnt.Add(1)
						}
					}
				}(t)
			}
			wg.Wait()
			close(stop)
			updaters.Wait()
			per[i] = cnt.Rate()
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
		kps, sps, err := scansWithUpdates(sc, m, k, sc.ScanLength, true)
		if err != nil {
			return nil, err
		}
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
		line := make([]float64, 0, len(ks)+1)
		for _, k := range ks {
			ups, err := updatesWithScans(sc, m, k, sc.ScanLength)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig17Row{Machines: m, K: k, UpdatesPerS: ups})
			line = append(line, ups)
		}
		// No-scans ceiling.
		ups, err := updatesWithScans(sc, m, -1, 0)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig17Row{Machines: m, K: -1, NoScans: true, UpdatesPerS: ups})
		line = append(line, ups)
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
	var rows []Fig18Row
	for _, k := range ks {
		var per [2]time.Duration
		for i, withUpd := range []bool{true, false} {
			lat, err := scanLatency(sc, machines, k, sc.ScanLength, withUpd)
			if err != nil {
				return nil, err
			}
			per[i] = lat
			rows = append(rows, Fig18Row{K: k, WithUpdates: withUpd, MeanLatency: lat})
		}
		fprintf(w, "%-10v %-16v %-16v\n", k, per[0], per[1])
	}
	return rows, nil
}

// --------------------------------------------------------------- drivers --

// scansWithUpdates runs 80% update / 20% scan clients for sc.Duration and
// returns scan throughput (keys/s and scans/s).
func scansWithUpdates(sc Scale, machines int, k time.Duration, scanLen int, wantScanRate bool) (float64, float64, error) {
	cl, err := newMinuet(sc, machines, true, 1)
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	db, err := newMinuetDB(cl, 0)
	if err != nil {
		return 0, 0, err
	}
	if err := ycsb.Load(db, 0, sc.Preload, 4*machines); err != nil {
		return 0, 0, err
	}
	cl.SCS(0).MinInterval = k

	stop := make(chan struct{})
	total := machines * sc.ThreadsPerMachine
	updaters := updaterPool(db, sc.Preload, total*4/5, stop)
	scanThreads := total / 5
	if scanThreads < 1 {
		scanThreads = 1
	}

	keys := metrics.NewCounter()
	scans := metrics.NewCounter()
	var wg sync.WaitGroup
	deadline := time.Now().Add(sc.Duration)
	for t := 0; t < scanThreads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			r := newRand(int64(t) + 1300)
			bt := db.trees[t%len(db.trees)]
			for time.Now().Before(deadline) {
				snap, _, err := cl.Proxy(t % machines).Snapshot(0)
				if err != nil {
					continue
				}
				maxStart := int64(sc.Preload) - int64(scanLen)
				if maxStart < 1 {
					maxStart = 1
				}
				start := ycsb.Key(uint64(r.Int63n(maxStart)))
				kvs, err := bt.ScanSnapshot(snap, start, scanLen)
				if err == nil {
					keys.Add(int64(len(kvs)))
					scans.Add(1)
				}
			}
		}(t)
	}
	wg.Wait()
	close(stop)
	updaters.Wait()
	return keys.Rate(), scans.Rate(), nil
}

// updatesWithScans measures update throughput while scan clients run with
// snapshot interval k. k < 0 disables scan clients entirely.
func updatesWithScans(sc Scale, machines int, k time.Duration, scanLen int) (float64, error) {
	cl, err := newMinuet(sc, machines, true, 1)
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	db, err := newMinuetDB(cl, 0)
	if err != nil {
		return 0, err
	}
	if err := ycsb.Load(db, 0, sc.Preload, 4*machines); err != nil {
		return 0, err
	}
	total := machines * sc.ThreadsPerMachine
	updThreads := total
	scanThreads := 0
	if k >= 0 {
		cl.SCS(0).MinInterval = k
		updThreads = total * 4 / 5
		scanThreads = total - updThreads
	}

	cnt := metrics.NewCounter()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	deadline := time.Now().Add(sc.Duration)
	for t := 0; t < updThreads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			r := newRand(int64(t) + 1700)
			for time.Now().Before(deadline) {
				i := uint64(r.Int63n(int64(sc.Preload)))
				if db.Update(ycsb.Key(i), ycsb.Value(i)) == nil {
					cnt.Add(1)
				}
			}
		}(t)
	}
	for t := 0; t < scanThreads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			r := newRand(int64(t) + 1900)
			bt := db.trees[t%len(db.trees)]
			for time.Now().Before(deadline) {
				snap, _, err := cl.Proxy(t % machines).Snapshot(0)
				if err != nil {
					continue
				}
				maxStart := int64(sc.Preload) - int64(scanLen)
				if maxStart < 1 {
					maxStart = 1
				}
				start := ycsb.Key(uint64(r.Int63n(maxStart)))
				_, _ = bt.ScanSnapshot(snap, start, scanLen)
			}
		}(t)
	}
	wg.Wait()
	close(stop)
	return cnt.Rate(), nil
}

// scanLatency measures mean scan latency (snapshot request + scan) with
// snapshot interval k, optionally under a concurrent update workload.
func scanLatency(sc Scale, machines int, k time.Duration, scanLen int, withUpdates bool) (time.Duration, error) {
	cl, err := newMinuet(sc, machines, true, 1)
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	db, err := newMinuetDB(cl, 0)
	if err != nil {
		return 0, err
	}
	if err := ycsb.Load(db, 0, sc.Preload, 4*machines); err != nil {
		return 0, err
	}
	cl.SCS(0).MinInterval = k

	stop := make(chan struct{})
	var updaters *sync.WaitGroup
	if withUpdates {
		updaters = updaterPool(db, sc.Preload, machines*sc.ThreadsPerMachine*4/5, stop)
	}
	var hist metrics.Histogram
	scanThreads := machines * sc.ThreadsPerMachine / 5
	if scanThreads < 1 {
		scanThreads = 1
	}
	var wg sync.WaitGroup
	deadline := time.Now().Add(sc.Duration)
	for t := 0; t < scanThreads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			r := newRand(int64(t) + 2300)
			bt := db.trees[t%len(db.trees)]
			for time.Now().Before(deadline) {
				t0 := time.Now()
				snap, _, err := cl.Proxy(t % machines).Snapshot(0)
				if err != nil {
					continue
				}
				maxStart := int64(sc.Preload) - int64(scanLen)
				if maxStart < 1 {
					maxStart = 1
				}
				start := ycsb.Key(uint64(r.Int63n(maxStart)))
				if _, err := bt.ScanSnapshot(snap, start, scanLen); err == nil {
					hist.Observe(time.Since(t0))
				}
			}
		}(t)
	}
	wg.Wait()
	close(stop)
	if updaters != nil {
		updaters.Wait()
	}
	return hist.Mean(), nil
}

var _ = core.NoSnap // referenced to keep the core import for doc links
