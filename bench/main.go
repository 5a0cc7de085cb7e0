// Command bench is the repository's benchmark: four workloads over one
// operation mix, seven end-to-end metrics plus the failed-operation count,
// and a traced run that times the calls into each layer. See README.md.
//
//	go run . -workload oltp_mem -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is the result; a fuller record (sample
// counts, toolchain, plan) goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "one of oltp_mem, oltp_tcp, oltp_wal, htap_branch")
	seed := flag.Int64("seed", 1, "seed of the operation sequence")
	seconds := flag.Int("seconds", refSeconds, "run length the fixed work is sized for")
	trace := flag.Int("trace", 0, "1: traced run, reports the per-layer metrics instead of the end-to-end ones")
	selfcheck := flag.Int("selfcheck", 0, "run every workload N times as two alternating sets and compare them")
	flag.Parse()

	if *selfcheck > 0 {
		os.Exit(runSelfcheck(*selfcheck, *seed, *seconds))
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: bench -workload <name> -seed <n> -seconds <n> -trace <0|1>\n")
		flag.PrintDefaults()
		os.Exit(2)
	}
	traced := *trace != 0
	res, err := run(w, *seed, standardPlan(w, *seconds, traced), ".bench_build")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", f)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := output{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]outMetric{}}
	record := map[string]any{
		"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": traced,
		"go": runtime.Version(), "gomaxprocs": w.procs, "nproc": runtime.NumCPU(),
		"commit":  os.Getenv("BENCH_COMMIT"),
		"setup_s": res.setups, "warmup_s": res.warmupS, "measure_s": res.measureS, "recovery_s": res.recoveryS,
		"slice_wall_s": res.sliceWalls,
		"spans":        res.spans, "spans_lost": res.spansLost,
		"records": numRecords, "rounds": numRounds, "slice_ops": fmt.Sprintf("%+v", res.sliceCounts),
	}
	full := map[string]metricValue{}
	for _, m := range defs {
		v, ok := res.metrics[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: metric %s was not measured\n", m.name)
			os.Exit(1)
		}
		v.Unit = m.unit
		full[m.name] = v
		out.Metrics[m.name] = outMetric{Value: v.Value, Unit: m.unit}
	}
	record["metrics"] = full
	if b, err := json.Marshal(record); err == nil {
		fmt.Fprintln(os.Stderr, string(b))
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if res.failed > 0 {
		os.Exit(1)
	}
}
