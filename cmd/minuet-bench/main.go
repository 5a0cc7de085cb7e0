// Command minuet-bench regenerates the paper's evaluation figures (§6,
// Figs 10-18) on the in-process simulated cluster and prints the same rows
// and series the paper plots.
//
// Usage:
//
//	minuet-bench -fig all                 # every figure at the default scale
//	minuet-bench -fig 10,13 -machines 1,2,4,8,16
//	minuet-bench -fig 14 -duration 2s -preload 100000
//	minuet-bench -fig all -quick          # fast smoke run
//
// Absolute numbers are laptop-scale (the substrate is a simulator, not the
// paper's 35-host testbed); the shapes — who wins, by what factor, where
// the crossovers fall — are the reproduction target. See docs/ARCHITECTURE.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"minuet/internal/experiments"
)

func main() {
	var (
		figs     = flag.String("fig", "all", "comma-separated figure numbers (10-18) or 'all'")
		machines = flag.String("machines", "", "comma-separated cluster sizes (default 1,2,4,8)")
		threads  = flag.Int("threads", 0, "YCSB client threads per machine")
		preload  = flag.Uint64("preload", 0, "records preloaded before measurement")
		duration = flag.Duration("duration", 0, "measurement window per data point")
		latency  = flag.Duration("latency", 0, "one-way simulated network latency")
		scanLen  = flag.Int("scan", 0, "scan length in keys")
		quick    = flag.Bool("quick", false, "use the quick (smoke-test) scale")
	)
	flag.Parse()

	sc := experiments.Default()
	if *quick {
		sc = experiments.Quick()
	}
	if *machines != "" {
		sc.Machines = nil
		for _, part := range strings.Split(*machines, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fatalf("bad -machines entry %q", part)
			}
			sc.Machines = append(sc.Machines, n)
		}
	}
	if *threads > 0 {
		sc.ThreadsPerMachine = *threads
	}
	if *preload > 0 {
		sc.Preload = *preload
	}
	if *duration > 0 {
		sc.Duration = *duration
	}
	if *latency > 0 {
		sc.Latency = *latency
	}
	if *scanLen > 0 {
		sc.ScanLength = *scanLen
	}

	want := map[int]bool{}
	switch *figs {
	case "all":
		for f := 10; f <= 18; f++ {
			want[f] = true
		}
	default:
		for _, part := range strings.Split(*figs, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 10 || n > 18 {
				fatalf("bad -fig entry %q (want 10-18)", part)
			}
			want[n] = true
		}
	}

	fmt.Printf("# minuet-bench  machines=%v threads/machine=%d preload=%d duration=%v latency=%v scan=%d\n\n",
		sc.Machines, sc.ThreadsPerMachine, sc.Preload, sc.Duration, sc.Latency, sc.ScanLength)

	type figure struct {
		n   int
		run func() error
	}
	figures := []figure{
		{10, func() error { _, err := experiments.Fig10(sc, os.Stdout); return err }},
		{11, func() error { _, err := experiments.Fig11(sc, os.Stdout); return err }},
		{12, func() error { _, err := experiments.Fig12(sc, os.Stdout); return err }},
		{13, func() error { _, err := experiments.Fig13(sc, os.Stdout); return err }},
		{14, func() error { _, err := experiments.Fig14(sc, os.Stdout); return err }},
		{15, func() error { _, err := experiments.Fig15(sc, os.Stdout); return err }},
		{16, func() error { _, err := experiments.Fig16(sc, os.Stdout); return err }},
		{17, func() error { _, err := experiments.Fig17(sc, os.Stdout); return err }},
		{18, func() error { _, err := experiments.Fig18(sc, os.Stdout); return err }},
	}
	for _, f := range figures {
		if !want[f.n] {
			continue
		}
		t0 := time.Now()
		if err := f.run(); err != nil {
			fatalf("figure %d: %v", f.n, err)
		}
		fmt.Printf("# figure %d done in %v\n\n", f.n, time.Since(t0).Round(time.Millisecond))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "minuet-bench: "+format+"\n", args...)
	os.Exit(1)
}
