package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/job"
	"repro/internal/stats"
	"repro/internal/workload"
)

// fleet-drain runs dcaserve -store <fresh dir> and one dcaworker -n 1 pull
// loop. The benchmark keeps fleetOutstanding small grids in flight, each one
// POST /v1/queue plus one /v1/watch stream, then reads settled results
// back with GET /v1/results/{key}. The timed phase is fleetSegments
// segments, each a drain followed by its share of the reads, so that both
// populations are spread over the run: the host's speed shifts from
// second to second, and one block of reads would catch only one of its
// states.
const (
	fleetSetupReps   = 15
	fleetOutstanding = 2
	fleetReads       = 30000
	fleetSegments    = 5
	readyTimeout     = 30 * time.Second
)

// fleet is one running dcaserve + dcaworker pair.
type fleet struct {
	serve, worker *exec.Cmd
	base          string
	client        *http.Client
}

// startFleet spawns dcaserve over a fresh store, waits for /healthz, then
// spawns the worker and waits until its lease long-poll is in flight. The
// returned duration is that whole set-up.
func startFleet(cfg config) (*fleet, time.Duration, error) {
	dir, err := cleanup.tempDir(filepath.Join(cfg.work, "tmp"), "fleet-")
	if err != nil {
		return nil, 0, err
	}
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	f := &fleet{
		base:   fmt.Sprintf("http://127.0.0.1:%d", port),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * fleetOutstanding}},
	}
	logs, err := os.Create(filepath.Join(dir, "fleet.log"))
	if err != nil {
		return nil, 0, err
	}
	defer logs.Close() // the children hold their own descriptors

	t0 := time.Now()
	f.serve, err = spawn(logs, filepath.Join(cfg.bin, "dcaserve"),
		"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-store", filepath.Join(dir, "store"))
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), readyTimeout)
	defer cancel()
	if err := f.waitFor(ctx, func() bool {
		resp, err := f.client.Get(f.base + "/healthz")
		if err != nil {
			return false
		}
		drain(resp)
		return resp.StatusCode == http.StatusOK
	}); err != nil {
		return nil, 0, fmt.Errorf("dcaserve never became healthy (log %s): %w", logs.Name(), err)
	}
	f.worker, err = spawn(logs, filepath.Join(cfg.bin, "dcaworker"), "-server", f.base, "-n", "1")
	if err != nil {
		return nil, 0, err
	}
	if err := f.waitFor(ctx, func() bool {
		m, err := f.scrape()
		return err == nil && m[`http_inflight_requests{endpoint="POST /v1/leases"}`] >= 1
	}); err != nil {
		return nil, 0, fmt.Errorf("dcaworker never polled (log %s): %w", logs.Name(), err)
	}
	return f, time.Since(t0), nil
}

// spawn starts a child that dies with this process and is stopped by
// cleanup on every exit path.
func spawn(logs *os.File, bin string, args ...string) (*exec.Cmd, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logs, logs
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	cleanup.track(cmd)
	return cmd, nil
}

// waitFor polls cond every millisecond until it holds or ctx ends.
func (f *fleet) waitFor(ctx context.Context, cond func() bool) error {
	for !cond() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// stop kills the worker, then the server, and waits for both.
func (f *fleet) stop() {
	cleanup.stop(f.worker)
	cleanup.stop(f.serve)
	f.client.CloseIdleConnections()
}

// usage returns dcaserve's and dcaworker's CPU and peak RSS.
func (f *fleet) usage() (serve, worker procUsage, err error) {
	if serve, err = readUsage(strconv.Itoa(f.serve.Process.Pid)); err != nil {
		return
	}
	worker, err = readUsage(strconv.Itoa(f.worker.Process.Pid))
	return
}

// scrape reads /metrics into series -> value, the series keyed as printed
// (name plus labels).
func (f *fleet) scrape() (map[string]float64, error) {
	resp, err := f.client.Get(f.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// drain discards and closes a response body so its connection is reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) // a broken body only costs the connection
	resp.Body.Close()
}

// gridRec is one small grid's round trip.
type gridRec struct {
	start, end time.Time
	cellsMS    []float64 // POST start to each cell's "done"
	keys       []string  // settled keys, in settlement order
	failed     int
	spec       int // index into the run's specs
}

// queueReply is the part of POST /v1/queue's reply the benchmark reads.
type queueReply struct {
	Jobs []struct {
		Key    string `json:"key"`
		Status string `json:"status"`
	} `json:"jobs"`
	Queued int `json:"queued"`
}

// watchEvent is one line of a /v1/watch stream.
type watchEvent struct {
	Type    string `json:"type"`
	Key     string `json:"key"`
	Summary *struct {
		Done   int `json:"done"`
		Failed int `json:"failed"`
	} `json:"summary"`
}

// runGridOnce queues one small grid and follows its watch stream to the
// "complete" summary.
func (f *fleet) runGridOnce(spec job.GridSpec, index int, tr *tracer) (*gridRec, error) {
	unit := fmt.Sprintf("grid-%d", index)
	body, err := json.Marshal(map[string]job.GridSpec{"grid": spec})
	if err != nil {
		return nil, err
	}
	rec := &gridRec{start: time.Now(), spec: index}
	root := tr.start("grid", 0, unit)
	defer tr.end(root)

	s := tr.start("POST /v1/queue", root, unit)
	resp, err := f.client.Post(f.base+"/v1/queue", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var qr queueReply
	err = json.NewDecoder(resp.Body).Decode(&qr)
	drain(resp)
	tr.end(s)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("POST /v1/queue: %s: %v", resp.Status, err)
	}
	keys := make([]string, len(qr.Jobs))
	for i, j := range qr.Jobs {
		keys[i] = j.Key
	}
	if qr.Queued != len(keys) {
		rec.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: grid %s queued %d of %d jobs (keys must be distinct)\n", unit, qr.Queued, len(keys))
	}

	s = tr.start("GET /v1/watch", root, unit)
	defer tr.end(s)
	resp, err = f.client.Get(f.base + "/v1/watch?keys=" + strings.Join(keys, ","))
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/watch: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev watchEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("watch line %q: %w", sc.Text(), err)
		}
		switch ev.Type {
		case "done":
			rec.cellsMS = append(rec.cellsMS, ms(time.Since(rec.start)))
			rec.keys = append(rec.keys, ev.Key)
		case "failed":
			rec.failed++
			fmt.Fprintf(os.Stderr, "perfbench: check failed: grid %s: key %s failed\n", unit, ev.Key)
		case "complete":
			rec.end = time.Now()
			if ev.Summary == nil || ev.Summary.Failed != 0 || ev.Summary.Done != len(keys) {
				rec.failed++
				fmt.Fprintf(os.Stderr, "perfbench: check failed: grid %s summary %+v for %d keys\n", unit, ev.Summary, len(keys))
			}
			return rec, nil
		}
	}
	return nil, fmt.Errorf("watch stream for grid %s ended without a summary: %v", unit, sc.Err())
}

// drainStats is one timed drain.
type drainStats struct {
	grids       []*gridRec
	wall        time.Duration // first POST to last "complete"
	cells       int
	insts       uint64
	serveCPU    time.Duration
	workerCPU   time.Duration
	serve, work procUsage // at the end of the drain
}

// drainFor runs the closed loop — fleetOutstanding clients, each queueing
// its next grid as soon as the last one completes — for d, then waits for
// the grids in flight. next indexes the next spec to queue.
func (f *fleet) drainFor(d time.Duration, specs []job.GridSpec, next *atomic.Int64, tr *tracer) (*drainStats, error) {
	s0, w0, err := f.usage()
	if err != nil {
		return nil, err
	}
	var (
		mu       sync.Mutex
		grids    = make([]*gridRec, len(specs))
		firstErr error
		wg       sync.WaitGroup
	)
	began := time.Now()
	for c := 0; c < fleetOutstanding; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(began) < d {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				rec, err := f.runGridOnce(specs[i], i, tr)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				grids[i] = rec
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	ds := &drainStats{}
	var last time.Time
	for i, g := range grids {
		if g == nil {
			continue
		}
		ds.grids = append(ds.grids, g)
		ds.cells += len(g.keys)
		ds.insts += uint64(len(g.keys)) * (specs[i].Warmup + specs[i].Measure)
		if g.end.After(last) {
			last = g.end
		}
	}
	ds.wall = last.Sub(began)
	if ds.serve, ds.work, err = f.usage(); err != nil {
		return nil, err
	}
	ds.serveCPU, ds.workerCPU = ds.serve.CPU-s0.CPU, ds.work.CPU-w0.CPU
	return ds, nil
}

// add folds a later segment's drain into ds.
func (ds *drainStats) add(o *drainStats) {
	ds.grids = append(ds.grids, o.grids...)
	ds.wall += o.wall
	ds.cells += o.cells
	ds.insts += o.insts
	ds.serveCPU += o.serveCPU
	ds.workerCPU += o.workerCPU
	ds.serve, ds.work = o.serve, o.work
}

// measure runs the timed phase: fleetSegments drains of d/fleetSegments,
// each followed, after its write-back is flushed, by fleetReads/
// fleetSegments reads. It returns the drains together, the job of every
// settled key, the read latencies and the mean read.
func (f *fleet) measure(d time.Duration, specs []job.GridSpec, rng interface{ IntN(int) int }, res *result, tr *tracer) (*drainStats, map[string]job.Job, []float64, time.Duration, error) {
	var (
		next    atomic.Int64
		all     = &drainStats{}
		jobs    = make(map[string]job.Job)
		readMS  []float64
		readSum time.Duration
	)
	steal := startSteal()
	for seg := 0; seg < fleetSegments; seg++ {
		flushWrites()
		ds, err := f.drainFor(d/fleetSegments, specs, &next, tr)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		all.add(ds)
		if err := planSettled(jobs, ds, specs); err != nil {
			return nil, nil, nil, 0, err
		}
		flushWrites()
		xs, sum, err := f.readPhase(all, jobs, seg*fleetReads/fleetSegments, fleetReads/fleetSegments, rng, res, tr)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		readMS = append(readMS, xs...)
		readSum += sum
	}
	steal.print("the drains and reads")
	return all, jobs, readMS, readSum / time.Duration(len(readMS)), nil
}

// runFleet runs fleet-drain. A traced run drains twice, on two fresh
// fleets: plain, then with the benchmark's HTTP calls in spans, half the
// time each.
func runFleet(cfg config) (*result, error) {
	for _, b := range []string{"dcaserve", "dcaworker"} {
		if _, err := os.Stat(filepath.Join(cfg.bin, b)); err != nil {
			return nil, fmt.Errorf("fleet binaries: %w (build them with perfbench/run.sh)", err)
		}
	}
	rng := cfg.rng()
	specs := smallGrids(rng, smallWindows)
	res := newResult()

	phases := []bool{false}
	d := cfg.seconds
	if cfg.trace {
		phases, d = []bool{false, true}, cfg.seconds/2
	}
	var plain, traced *drainStats
	for _, tracedPhase := range phases {
		var tr *tracer
		if tracedPhase {
			tr = newTracer()
		}
		// Set-up, fleetSetupReps times; the last fleet is kept. The flush
		// first settles what earlier runs left for the file system.
		flushWrites()
		var setups []float64
		var f *fleet
		for i := 0; i < fleetSetupReps; i++ {
			if f != nil {
				f.stop()
			}
			var took time.Duration
			var err error
			if f, took, err = startFleet(cfg); err != nil {
				return nil, err
			}
			setups = append(setups, seconds(took))
		}
		if !tracedPhase {
			res.set("setup_s", median(setups))
		}

		before, err := f.scrape()
		if err != nil {
			f.stop()
			return nil, err
		}
		ds, jobs, readMS, readMean, err := f.measure(d, specs, rng, res, tr)
		// The layer deltas end with the reads; the checks' own GETs reach
		// the disk tier too and are left out of them.
		var after map[string]float64
		if err == nil {
			after, err = f.scrape()
		}
		if err == nil {
			err = f.checkFleet(ds, jobs, before, res)
		}
		f.stop()
		if err != nil {
			return nil, err
		}
		if !tracedPhase {
			plain = ds
			if err := setFleetEndToEnd(ds, readMS, res); err != nil {
				return nil, err
			}
			continue
		}
		traced = ds
		setFleetLayers(ds, before, after, readMean, res)
		spans := tr.since(0)
		printSelfTimes(os.Stdout, "fleet-drain, client HTTP calls (2 clients, so shares can exceed 100%)", selfTimes(spans), extent(spans))
		path := filepath.Join(cfg.work, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		fmt.Printf("spans written to %s\n", path)
	}
	if traced != nil {
		pm, tm := float64(plain.insts)/plain.wall.Seconds()/1e6, float64(traced.insts)/traced.wall.Seconds()/1e6
		pc, tc := float64(plain.cells)/plain.wall.Seconds(), float64(traced.cells)/traced.wall.Seconds()
		fmt.Printf("tracing overhead: minst_per_s untraced %.4f traced %.4f (%+.2f%%); cells_per_s untraced %.3f traced %.3f (%+.2f%%)\n",
			pm, tm, 100*(tm/pm-1), pc, tc, 100*(tc/pc-1))
	}
	return res, nil
}

// readPhase issues n GET /v1/results/{key} over the most recently settled
// keys — few enough that all sit in dcaserve's memory tier — and checks
// each served result: its digest against the result it came with, and its
// window against the job the key names. Only the GET is timed; first
// numbers the reads' spans. It returns the latencies and their sum.
func (f *fleet) readPhase(ds *drainStats, jobs map[string]job.Job, first, n int, rng interface{ IntN(int) int }, res *result, tr *tracer) ([]float64, time.Duration, error) {
	keys := ds.keys()
	if len(keys) == 0 {
		return nil, 0, fmt.Errorf("drain settled no cells")
	}
	recent := keys[max(0, len(keys)-readWindow):]
	readMS := make([]float64, 0, n)
	var spanSum time.Duration
	for i := first; i < first+n; i++ {
		k := recent[rng.IntN(len(recent))]
		s := tr.start("GET /v1/results", 0, "read-"+strconv.Itoa(i))
		t0 := time.Now()
		raw, status, err := f.get("/v1/results/" + k)
		d := time.Since(t0)
		tr.end(s)
		if err != nil {
			return nil, 0, err
		}
		readMS = append(readMS, ms(d))
		spanSum += d
		sr, ok := verifyServed(raw, status)
		res.op(ok && windowOK(jobs[k], sr.Result), "GET /v1/results/%s: status %d, digest or window check failed", k, status)
	}
	return readMS, spanSum, nil
}

// keys returns the drain's settled keys in settlement order per grid.
func (ds *drainStats) keys() []string {
	var keys []string
	for _, g := range ds.grids {
		keys = append(keys, g.keys...)
	}
	return keys
}

// planSettled adds to jobs the job of every key ds settled, planned from
// the grid specs the run generated.
func planSettled(jobs map[string]job.Job, ds *drainStats, specs []job.GridSpec) error {
	for _, g := range ds.grids {
		planned, err := specs[g.spec].Plan()
		if err != nil {
			return err
		}
		for _, j := range planned {
			jobs[j.Key()] = j
		}
		for _, k := range g.keys {
			if _, ok := jobs[k]; !ok {
				return fmt.Errorf("settled key %s is no job of its grid", k)
			}
		}
	}
	return nil
}

// get fetches path and returns its body and status.
func (f *fleet) get(path string) ([]byte, int, error) {
	resp, err := f.client.Get(f.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return raw, resp.StatusCode, err
}

// servedResult is GET /v1/results/{key}'s reply.
type servedResult struct {
	Key          string     `json:"key"`
	Result       *stats.Run `json:"result"`
	ResultDigest string     `json:"result_digest"`
}

// verifyServed decodes a served result and checks its digest against the
// result it came with.
func verifyServed(raw []byte, status int) (*servedResult, bool) {
	var sr servedResult
	if status != http.StatusOK || json.Unmarshal(raw, &sr) != nil || sr.Result == nil {
		return nil, false
	}
	return &sr, job.ResultDigest(sr.Result) == sr.ResultDigest
}

// checkFleet checks the drain, untimed: no grid settled with a failure,
// every settled key serves a result whose digest verifies and whose window
// was committed, one key per benchmark matches an in-process job.Direct
// run, and the /metrics deltas show no expired, retried or exhausted job.
func (f *fleet) checkFleet(ds *drainStats, jobs map[string]job.Job, before map[string]float64, res *result) error {
	for _, g := range ds.grids {
		res.op(g.failed == 0, "grid %d settled with %d failures", g.spec, g.failed)
	}
	want := make(map[string]bool)
	for _, b := range workload.Names() {
		want[b] = true
	}
	for _, k := range ds.keys() {
		j := jobs[k]
		raw, status, err := f.get("/v1/results/" + k)
		if err != nil {
			return err
		}
		sr, ok := verifyServed(raw, status)
		res.op(ok && windowOK(j, sr.Result),
			"served %s/%s (%s): status %d, digest or window check failed", j.Scheme, j.Benchmark, k, status)
		if !ok || !want[j.Benchmark] {
			continue
		}
		delete(want, j.Benchmark)
		r, err := job.Direct{}.Run(context.Background(), j)
		if err != nil {
			return err
		}
		res.op(job.ResultDigest(r) == sr.ResultDigest, "served %s/%s digest %s, in-process job.Direct %s",
			j.Scheme, j.Benchmark, sr.ResultDigest, job.ResultDigest(r))
	}
	res.op(len(want) == 0, "no settled key for benchmarks %v", want)
	after, err := f.scrape()
	if err != nil {
		return err
	}
	for _, c := range []string{"dcaserve_queue_expired_total", "dcaserve_queue_retried_total", "dcaserve_queue_exhausted_total"} {
		delta := after[c] - before[c]
		res.op(delta == 0, "%s moved by %g during the drain", c, delta)
	}
	return nil
}

// setFleetEndToEnd reports the plain drain's end-to-end metrics.
func setFleetEndToEnd(ds *drainStats, readMS []float64, res *result) error {
	var cellMS, gridMS []float64
	for _, g := range ds.grids {
		cellMS = append(cellMS, g.cellsMS...)
		gridMS = append(gridMS, ms(g.end.Sub(g.start)))
	}
	res.set("minst_per_s", float64(ds.insts)/ds.wall.Seconds()/1e6)
	res.set("cells_per_s", float64(ds.cells)/ds.wall.Seconds())
	res.set("cpu_ms_per_cell", ms(ds.serveCPU+ds.workerCPU)/float64(ds.cells))
	res.set("peak_rss_mb", float64(ds.serve.PeakRSS+ds.work.PeakRSS)/(1<<20))
	if err := res.setPercentiles(cellMS, percentile, pctSpec{"cell_ms_p50", 50}, pctSpec{"cell_ms_p90", 90}); err != nil {
		return err
	}
	if err := res.setPercentiles(gridMS, percentile, pctSpec{"grid_ms_p50", 50}, pctSpec{"grid_ms_p90", 90}); err != nil {
		return err
	}
	return res.setPercentiles(readMS, readPercentile, pctSpec{"read_ms_p50", 50}, pctSpec{"read_ms_p99", 99})
}

// setFleetLayers reports the traced drain's per-layer metrics: server
// time per request from http_request_seconds deltas, queue and store
// counter deltas, per-process CPU and peak RSS, and the client-side read.
func setFleetLayers(ds *drainStats, before, after map[string]float64, readMean time.Duration, res *result) {
	delta := func(series string) float64 { return after[series] - before[series] }
	perRequest := func(endpoint string) float64 {
		sel := `{endpoint="` + endpoint + `"}`
		n := delta("http_request_seconds_count" + sel)
		if n == 0 {
			return 0
		}
		return 1e3 * delta("http_request_seconds_sum"+sel) / n
	}
	res.set("serve.queue_post_ms", perRequest("POST /v1/queue"))
	res.set("serve.lease_ms", perRequest("POST /v1/leases"))
	res.set("serve.complete_ms", perRequest("POST /v1/leases/{id}/complete"))
	res.set("serve.result_get_ms", perRequest("GET /v1/results/{key}"))
	leased, completed := delta("dcaserve_queue_leased_total"), delta("dcaserve_queue_completed_total")
	res.set("queue.leased", leased)
	res.set("queue.completed", completed)
	res.set("queue.expired", delta("dcaserve_queue_expired_total"))
	res.set("queue.retried", delta("dcaserve_queue_retried_total"))
	if leased > 0 {
		res.set("queue.useful_ratio", completed/leased)
	}
	res.set("store.hits", delta("dcaserve_store_hits_total"))
	res.set("store.misses", delta("dcaserve_store_misses_total"))
	cells := float64(ds.cells)
	res.set("serve.cpu_ms_per_cell", ms(ds.serveCPU)/cells)
	res.set("worker.cpu_ms_per_cell", ms(ds.workerCPU)/cells)
	res.set("serve.peak_rss_mb", float64(ds.serve.PeakRSS)/(1<<20))
	res.set("worker.peak_rss_mb", float64(ds.work.PeakRSS)/(1<<20))
	res.set("http.read_ms", ms(readMean))
}
