package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// tinyPlan runs every phase of a run in well under a second.
func tinyPlan(w *workload, traced bool) plan {
	p := plan{
		records:    3000,
		setups:     1,
		warmRounds: 1,
		rounds:     2,
		probeIters: 50,
		ops:        sliceOps{snapshots: 5, gets: 200, puts: 100, batches: 5, scans: 1},
	}
	if w.branching {
		p.ops.snapshots, p.ops.scans = 3, 0
	}
	if traced {
		p.rounds, p.traceRounds = 2, 1 // plain, recording, plain
	}
	return p
}

func mustRun(t *testing.T, w *workload, seed int64, traced bool) *result {
	t.Helper()
	dir := ""
	if traced {
		dir = t.TempDir()
	}
	res, err := run(w, seed, tinyPlan(w, traced), dir)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", w.name, res.failed, res.attempted, res.failures)
	}
	return res
}

// Every workload reports every end-to-end metric, none of them zero, from a
// run without decorators, and every layer metric from a traced run.
func TestEveryMetricIsReported(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		res := mustRun(t, w, 1, false)
		for _, m := range endToEnd {
			if v, ok := res.metrics[m.name]; !ok || !(v.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v (reported: %v)", w.name, m.name, v.Value, ok)
			}
		}
		res = mustRun(t, w, 1, true)
		for _, m := range perLayer {
			if v, ok := res.metrics[m.name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: layer metric %s = %v (reported: %v)", w.name, m.name, v.Value, ok)
			}
		}
		if res.spans == 0 || res.spansLost != 0 {
			t.Errorf("%s: %d spans recorded, %d lost", w.name, res.spans, res.spansLost)
		}
	}
}

// With one client and no timers the counts are exact: the same seed gives
// them bit for bit, and another seed changes which keys are touched but not
// how many operations run.
func TestCountsRepeatExactly(t *testing.T) {
	exact := []string{
		"mem_bytes_per_user_byte",
		"core.roundtrips_per_get", "core.roundtrips_per_put", "core.roundtrips_per_batch_key", "core.roundtrips_per_scan_key",
		"wal.bytes_per_user_byte", "rpcnet.wire_bytes_per_call",
	}
	for i := range workloads {
		w := &workloads[i]
		if w.branching {
			continue // two clients: the scanner's progress is not a count
		}
		a, b, c := mustRun(t, w, 7, true), mustRun(t, w, 7, true), mustRun(t, w, 8, true)
		for _, name := range exact {
			if a.metrics[name].Value != b.metrics[name].Value {
				t.Errorf("%s: %s differs between two runs of seed 7: %v, %v", w.name, name, a.metrics[name].Value, b.metrics[name].Value)
			}
		}
		if a.digest != b.digest {
			t.Errorf("%s: seed 7 left two different trees behind", w.name)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 wrote the same values to the same keys", w.name)
		}
		if a.attempted != c.attempted {
			t.Errorf("%s: seed 7 attempted %d operations, seed 8 %d", w.name, a.attempted, c.attempted)
		}
	}
}

// A wrong answer from the tree must fail the run: corrupt the model behind
// the driver's back and see the failure counted.
func TestWrongResultsAreCounted(t *testing.T) {
	w := findWorkload("oltp_mem")
	d := newDriver(w, 1, tinyPlan(w, false))
	if err := d.setup(); err != nil {
		t.Fatal(err)
	}
	defer d.st.close()
	for i := range d.base {
		d.base[i]++
	}
	d.digest++
	d.round(false)
	if d.res.failed < int64(d.p.ops.gets/2) {
		t.Fatalf("wrong values and a wrong scan digest went unnoticed: %d failures", d.res.failed)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v", q1, q3)
	}
}

// BENCHMARK.json at the repository root and the tables in workloads.go say
// the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, slice table sized for %d", doc.RunSeconds, refSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v in BENCHMARK.json, %s / %s in workloads.go", i, doc.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in workloads.go", len(got), kind, len(want))
		}
		for i, m := range want {
			if got[i] != (jsonMetric{m.name, m.unit, m.better, m.bound}) {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v in workloads.go", kind, i, got[i], m)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
