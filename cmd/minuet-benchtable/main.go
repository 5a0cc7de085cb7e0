// Command minuet-benchtable prints the end-to-end metrics of repo-benchmark
// runs as a markdown table, one column per result file — the README's "Read
// path" table is its output, so the numbers there are generated, not typed.
//
// Usage:
//
//	minuet-benchtable oltp_mem.json oltp_tcp.json oltp_wal.json htap_branch.json
//
// Each file holds what `bash bench/run.sh --workload <w> ... --trace 0` wrote
// to stdout (its last line is the result object); the column is named after
// the file. `make bench-table` runs the four workloads and then this.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type result struct {
	Failed  int `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func load(path string) (result, error) {
	var r result
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.Failed != 0 {
		return r, fmt.Errorf("%s: run reports %d failed operations", path, r.Failed)
	}
	return r, nil
}

// cell renders v with three significant digits and thousands separators.
func cell(v float64) string {
	if v < 1000 {
		return strconv.FormatFloat(v, 'g', 3, 64)
	}
	unit := math.Pow(10, math.Floor(math.Log10(v))-2)
	s := strconv.FormatFloat(math.Round(v/unit)*unit, 'f', 0, 64)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: minuet-benchtable <result.json>...")
		os.Exit(2)
	}
	var names []string
	var runs []result
	units := map[string]string{}
	for _, path := range os.Args[1:] {
		r, err := load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "minuet-benchtable:", err)
			os.Exit(1)
		}
		names = append(names, strings.TrimSuffix(filepath.Base(path), filepath.Ext(path)))
		runs = append(runs, r)
		for m, v := range r.Metrics {
			units[m] = v.Unit
		}
	}
	metrics := make([]string, 0, len(units))
	for m := range units {
		metrics = append(metrics, m)
	}
	sort.Strings(metrics)

	fmt.Printf("| metric | `%s` |\n|---|%s\n", strings.Join(names, "` | `"), strings.Repeat("---|", len(names)))
	for _, m := range metrics {
		row := make([]string, len(runs))
		for i, r := range runs {
			row[i] = "—"
			if v, ok := r.Metrics[m]; ok {
				row[i] = cell(v.Value)
			}
		}
		fmt.Printf("| `%s` (%s) | %s |\n", m, units[m], strings.Join(row, " | "))
	}
}
