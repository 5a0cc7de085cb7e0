package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runSelfcheck answers the one question a benchmark must answer about
// itself before anyone compares two commits with it: does the same code
// agree with itself? It runs every workload n times as two sets, A and B,
// of this same binary — alternating which set goes first, one process per
// run, seeds seed..seed+n-1 in both sets — and prints, per workload and
// end-to-end metric, both medians and quartiles and the distance between
// the medians against the metric's bound. Any cell further apart than half
// its bound, or any failed run, makes the exit code 1.
func runSelfcheck(n int, seed int64, seconds int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "selfcheck:", err)
		return 1
	}
	type cell struct{ sets [2][]float64 }
	cells := make(map[string]*cell)
	bad := 0
	for i := 0; i < n; i++ {
		for j := 0; j < 2; j++ {
			set := (i + j) % 2
			for _, w := range workloads {
				out, err := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed+int64(i), 10),
					"-seconds", strconv.Itoa(seconds), "-trace", "0").Output()
				var res output
				if err == nil {
					lines := strings.Split(strings.TrimSpace(string(out)), "\n")
					err = json.Unmarshal([]byte(lines[len(lines)-1]), &res)
				}
				if err != nil || !res.Correct {
					fmt.Fprintf(os.Stderr, "selfcheck: %s seed %d set %c: run failed: %v\n", w.name, seed+int64(i), 'A'+set, err)
					bad++
					continue
				}
				for name, m := range res.Metrics {
					c := cells[w.name+"/"+name]
					if c == nil {
						c = &cell{}
						cells[w.name+"/"+name] = c
					}
					c.sets[set] = append(c.sets[set], m.Value)
				}
			}
		}
	}

	fmt.Printf("| workload | metric | A median [q1, q3] | B median [q1, q3] | distance | bound/2 | |\n|---|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		for _, m := range endToEnd {
			c := cells[w.name+"/"+m.name]
			if c == nil || len(c.sets[0]) == 0 || len(c.sets[1]) == 0 {
				continue
			}
			var med, q1, q3 [2]float64
			for s := range c.sets {
				med[s] = median(c.sets[s])
				q1[s], q3[s] = quartiles(c.sets[s])
			}
			dist := med[1]/med[0] - 1
			if dist < 0 {
				dist = -dist
			}
			verdict := "ok"
			if dist > m.bound/2 {
				verdict = "FAIL"
				bad++
			}
			fmt.Printf("| %s | %s | %.5g [%.5g, %.5g] | %.5g [%.5g, %.5g] | %.2f%% | %.1f%% | %s |\n",
				w.name, m.name, med[0], q1[0], q3[0], med[1], q1[1], q3[1], 100*dist, 50*m.bound, verdict)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
