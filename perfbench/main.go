// Command perfbench is the repository's benchmark: it drives the paths
// users run — a cold dcabench grid, the traced and stored grid stack, and
// a dcaserve + dcaworker fleet — in closed loops generated from a seed,
// checks every output, and prints each end-to-end metric by name with its
// unit. With -trace 1 it instead times the layers of the same workload from
// outside, by wrapping their public calls and interfaces, and prints a
// per-layer self-time split. See README.md for the workloads, the metrics
// and the layer-to-metric map.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload grid-cold --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	bin      string // directory holding the dcaserve and dcaworker binaries
	work     string // work directory inside the checkout: temp stores, span files
}

// rng returns the run's input generator. Every input the program sees —
// cell order, fleet grid mix and windows — is drawn from it, so one seed
// always yields the same inputs.
func (c config) rng() *rand.Rand { return rand.New(rand.NewPCG(c.seed, 0x5eed_dca0)) }

func main() {
	var (
		cfg   config
		secs  = flag.Int("seconds", 25, "measured time per run (the timed phase runs whole passes until it has elapsed)")
		trace = flag.Int("trace", 0, "1 = traced run: report the per-layer metrics instead of the end-to-end ones")
	)
	flag.StringVar(&cfg.workload, "workload", "", "grid-cold, grid-traced or fleet-drain")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.StringVar(&cfg.bin, "bin", filepath.Join(".bench_build", "bin"), "directory with the dcaserve and dcaworker binaries")
	flag.StringVar(&cfg.work, "work", ".bench_build", "work directory for temp stores and span files")
	flag.Parse()
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("want --seconds >= 1 and --trace 0 or 1"))
	}
	cfg.seconds, cfg.trace = time.Duration(*secs)*time.Second, *trace == 1

	run, ok := workloads[cfg.workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want grid-cold, grid-traced or fleet-drain)", cfg.workload))
	}
	onSignal()
	res, err := run(cfg)
	cleanup.run()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, *secs, *trace)
	line, err := res.encode(cfg.trace)
	if err != nil {
		fatal(err)
	}
	fmt.Println(line)
}

var workloads = map[string]func(config) (*result, error){
	"grid-cold":   func(c config) (*result, error) { return runGrid(c, false) },
	"grid-traced": func(c config) (*result, error) { return runGrid(c, true) },
	"fleet-drain": runFleet,
}

func fatal(err error) {
	cleanup.run()
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// endToEnd and perLayer name every metric a run reports, with its unit, in
// BENCHMARK.json order. A run reports all of one list: a layer its
// workload leaves idle reads 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"minst_per_s", "Minst/s"},
	{"cell_ms_p50", "ms"},
	{"cell_ms_p90", "ms"},
	{"cells_per_s", "1/s"},
	{"grid_ms_p50", "ms"},
	{"grid_ms_p90", "ms"},
	{"read_ms_p50", "ms"},
	{"read_ms_p99", "ms"},
	{"cpu_ms_per_cell", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"workload.load_ms", "ms"},
	{"workload.cell_load_ms", "ms"},
	{"job.plan_ms", "ms"},
	{"store.open_ms", "ms"},
	{"steer.build_ms", "ms"},
	{"core.build_ms", "ms"},
	{"core.warm_s", "s"},
	{"core.measure_s", "s"},
	{"core.ns_per_cycle", "ns"},
	{"core.allocs_per_cell", "count"},
	{"core.alloc_mb_per_cell", "MB"},
	{"core.sim_cycles", "count"},
	{"job.digest_ms", "ms"},
	{"job.runner_self_ms", "ms"},
	{"job.direct_ms", "ms"},
	{"experiments.overhead_ms", "ms"},
	{"trace.record_ms", "ms"},
	{"trace.recordings", "count"},
	{"trace.replays", "count"},
	{"trace.extensions", "count"},
	{"trace.live_fallbacks", "count"},
	{"trace.blob_mb", "MB"},
	{"store.get_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.blob_get_ms", "ms"},
	{"store.blob_put_ms", "ms"},
	{"serve.queue_post_ms", "ms"},
	{"serve.lease_ms", "ms"},
	{"serve.complete_ms", "ms"},
	{"serve.result_get_ms", "ms"},
	{"queue.leased", "count"},
	{"queue.completed", "count"},
	{"queue.expired", "count"},
	{"queue.retried", "count"},
	{"queue.useful_ratio", "ratio"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"serve.cpu_ms_per_cell", "ms"},
	{"worker.cpu_ms_per_cell", "ms"},
	{"serve.peak_rss_mb", "MB"},
	{"worker.peak_rss_mb", "MB"},
	{"http.read_ms", "ms"},
}

type metricDef struct{ name, unit string }

// result is what a run reports: its operation tally and its metrics.
type result struct {
	attempted, failed int
	values            map[string]float64
}

func newResult() *result { return &result{values: make(map[string]float64)} }

// set records a metric value.
func (r *result) set(name string, v float64) { r.values[name] = v }

// op counts one attempted operation, failed unless ok; a failure is
// explained on standard error.
func (r *result) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// pctSpec names a metric and the percentile it reports.
type pctSpec struct {
	name string
	p    float64
}

// setPercentiles sets each spec's metric to that percentile of xs, taken by
// pct.
func (r *result) setPercentiles(xs []float64, pct func([]float64, float64) (float64, error), specs ...pctSpec) error {
	for _, s := range specs {
		v, err := pct(xs, s.p)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		r.set(s.name, v)
	}
	return nil
}

// encode renders the final line: every metric of the run's list, in list
// order, each value with all its digits.
func (r *result) encode(traced bool) (string, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"correct":%t,"attempted":%d,"failed":%d,"metrics":{`, r.failed == 0, r.attempted, r.failed)
	for i, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !traced {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		name, _ := json.Marshal(d.name)
		unit, _ := json.Marshal(d.unit)
		fmt.Fprintf(&b, `%s:{"value":%s,"unit":%s}`, name, strconv.FormatFloat(v, 'g', -1, 64), unit)
	}
	b.WriteString("}}")
	return b.String(), nil
}
