// Command steady checks that the benchmark is steady. It makes two sets
// of -runs runs of every workload in BENCHMARK.json, each run in a fresh
// process with its own seed (1..N in the first set, 1001..1000+N in the
// second, held out), at the definition's run_seconds, alternating the
// workload order from round to round. For each workload and end-to-end
// metric it prints the first set's median, quartiles and spread (IQR over
// median, with quartiles as Python's statistics.quantiles(values, n=4)
// gives them) and the second set's spread and median. A spread wider than
// the metric's bound in either set is flagged WIDE, one above a third of
// it near, and a second-set median worse than the first by more than the
// bound MOVED. Any WIDE or MOVED exits 1.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh steady -runs 10
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json this tool reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runResult is the benchmark's last output line.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// heldOut is the seed offset of the second set.
const heldOut = 1000

func main() {
	var (
		bench  = flag.String("bench", filepath.Join(".bench_build", "bin", "perfbench"), "benchmark binary")
		config = flag.String("config", "BENCHMARK.json", "benchmark definition")
		runs   = flag.Int("runs", 10, "runs per workload and set")
	)
	flag.Parse()
	raw, err := os.ReadFile(*config)
	if err != nil {
		fatal(err)
	}
	var def benchmarkFile
	if err := json.Unmarshal(raw, &def); err != nil {
		fatal(fmt.Errorf("%s: %w", *config, err))
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if *runs < 4 || len(names) == 0 || def.RunSeconds < 1 {
		fatal(fmt.Errorf("want -runs >= 4 and a definition with workloads and run_seconds"))
	}

	// values[set][workload][metric] lists the runs' values.
	var values [2]map[string]map[string][]float64
	for s := range values {
		values[s] = make(map[string]map[string][]float64)
		for i := 0; i < *runs; i++ {
			order := append([]string(nil), names...)
			if i%2 == 1 {
				slices.Reverse(order)
			}
			for _, w := range order {
				sd := uint64(1+i) + heldOut*uint64(s)
				r, err := runOnce(*bench, w, sd, def.RunSeconds)
				if err != nil {
					fatal(fmt.Errorf("%s seed %d: %w", w, sd, err))
				}
				if values[s][w] == nil {
					values[s][w] = make(map[string][]float64)
				}
				line := fmt.Sprintf("set %d run %d %s seed %d: %d ops, 0 failed;", s, i, w, sd, r.Attempted)
				for _, m := range def.EndToEnd {
					v := r.Metrics[m.Name].Value
					values[s][w][m.Name] = append(values[s][w][m.Name], v)
					line += fmt.Sprintf(" %s=%.4g", m.Name, v)
				}
				fmt.Fprintln(os.Stderr, line)
			}
		}
	}

	bad := false
	for _, w := range names {
		fmt.Printf("== %s: %d runs per set, %d s each; set 2 on seeds %d..%d\n", w, *runs, def.RunSeconds, heldOut+1, heldOut+*runs)
		fmt.Printf("%-16s %-8s %12s %12s %12s %8s %8s %12s %8s %6s  %s\n",
			"metric", "unit", "median", "q1", "q3", "spread", "spread2", "median2", "worse", "bound", "")
		for _, m := range def.EndToEnd {
			xs, ys := values[0][w][m.Name], values[1][w][m.Name]
			if len(xs) == 0 || len(ys) == 0 {
				fmt.Printf("%-16s missing\n", m.Name)
				bad = true
				continue
			}
			q1, med, q3 := quartiles(xs)
			spread := (q3 - q1) / med
			p1, med2, p3 := quartiles(ys)
			spread2 := (p3 - p1) / med2
			worse := (med2 - med) / med
			if m.Better == "higher" {
				worse = -worse
			}
			var flags []string
			switch wide := max(spread, spread2); {
			case wide > m.Bound:
				flags, bad = append(flags, "WIDE"), true
			case wide > m.Bound/3:
				flags = append(flags, "near")
			}
			if worse > m.Bound {
				flags, bad = append(flags, "MOVED"), true
			}
			fmt.Printf("%-16s %-8s %12.6g %12.6g %12.6g %7.2f%% %7.2f%% %12.6g %+7.1f%% %5.0f%%  %s\n",
				m.Name, m.Unit, med, q1, q3, 100*spread, 100*spread2, med2, 100*worse, 100*m.Bound, strings.Join(flags, " "))
		}
	}
	if bad {
		os.Exit(1)
	}
}

// runOnce runs the benchmark once and returns its result line, refusing a
// run that failed a check.
func runOnce(bench, workload string, seed uint64, secs int) (*runResult, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bench, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(secs), "--trace", "0",
		"-bin", filepath.Dir(bench), "-work", filepath.Dir(filepath.Dir(bench)))
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, l := range lines {
		if strings.HasPrefix(l, "host steal") {
			fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", workload, seed, l)
		}
	}
	var r runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("last line: %w", err)
	}
	if !r.Correct || r.Failed != 0 {
		return nil, fmt.Errorf("%d of %d operations failed\n%s", r.Failed, r.Attempted, stderr.String())
	}
	return &r, nil
}

// quartiles returns the first quartile, median and third quartile of xs by
// the "exclusive" method of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		delta := i*(m+1) - j*4
		lo, hi := max(j-1, 0), min(j, m-1)
		return (s[lo]*float64(4-delta) + s[hi]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "steady:", err)
	os.Exit(1)
}
