package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/job"
	"repro/internal/job/store"
	"repro/internal/stats"
	"repro/internal/steer"
	"repro/internal/workload"
)

// The grid workloads run the paper's full exhibit grid — every scheme
// experiments.Exhibits needs, plus base, across all eight benchmarks: 120
// cells — the way dcabench does: experiments.Run, Parallelism 1, at a
// window cut from the 100k+1M default so one pass takes seconds. grid-cold
// uses the default job.Direct runner; grid-traced uses the stack
// `dcabench -traced -store` builds, fresh for every pass.
const (
	gridWarmup  = 10_000
	gridMeasure = 100_000
	// setupReps is how often a run repeats its set-up; setup_s is the
	// median.
	setupReps = 41
	// After every pass, smallPerRound small grids run (grid_ms needs at
	// least 100 for its p90), each followed by readsPerGrid reads of
	// settled results. One untimed round of as many grids comes before the
	// first pass: it fills the store's memory tier and the read window.
	smallPerRound = 200
	readsPerGrid  = 100
	// maxRounds bounds the passes of one run: the warm-up round and the
	// timed ones draw from the smallWindows distinct small grids.
	maxRounds = smallWindows/smallPerRound - 1
	// readBlock is the block the read percentiles are taken over; a run
	// reports the median of its blocks' figures (blockPercentile).
	readBlock = 10000
	// readWindow is how many of the most recently settled results the
	// reads draw from: far below the memory tier's 1024 entries, so every
	// read is a memory-tier hit.
	readWindow = 256
	// memoryTier is the LRU size dcabench and dcaserve put over the disk.
	memoryTier = 1024
)

// cellRec is one Runner.Run as the grid saw it.
type cellRec struct {
	job    job.Job
	dur    time.Duration
	run    stats.Run
	digest string
}

// detach copies a result out of the machine that produced it: job.Direct
// returns a pointer into the core.Machine, so holding that pointer would
// keep the whole machine alive.
func detach(r *stats.Run) stats.Run {
	cp := *r
	cp.Steered = append([]uint64(nil), r.Steered...)
	return cp
}

// cellRunner is the Runner experiments.Run dispatches to. It times one
// inner Runner.Run (cell_ms) and digests the result for the checks; in a
// traced run it opens the per-cell root span.
type cellRunner struct {
	next job.Runner
	tr   *tracer
	recs []cellRec
}

func (c *cellRunner) Run(ctx context.Context, j job.Job) (*stats.Run, error) {
	id := c.tr.push("cell", j.Scheme+"/"+j.Benchmark)
	defer c.tr.pop(id)
	start := time.Now()
	r, err := c.next.Run(ctx, j)
	d := time.Since(start)
	if err != nil {
		return nil, err
	}
	s := c.tr.push("job.ResultDigest", "")
	dg := job.ResultDigest(r)
	c.tr.pop(s)
	c.recs = append(c.recs, cellRec{job: j, dur: d, run: detach(r), digest: dg})
	return r, nil
}

// decomposed runs a cell as job.Direct does, one public call per span:
// workload.Load, the steering policy, core.New, Machine.Warm and
// Machine.Measure. It also counts the cell's simulated cycles (warm-up
// included) and its allocations.
type decomposed struct {
	tr                 *tracer
	cycles             uint64
	allocs, allocBytes uint64
	cells              int
}

func (d *decomposed) Run(ctx context.Context, j job.Job) (*stats.Run, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := d.tr.push("workload.Load", "")
	p, err := workload.Load(j.Benchmark)
	d.tr.pop(s)
	if err != nil {
		return nil, err
	}
	s = d.tr.push("steer.NewWithParams", "")
	var st core.Steerer = core.NaiveSteerer{}
	if j.Scheme != job.BaseScheme && j.Scheme != job.UBScheme {
		st, err = steer.NewWithParams(j.Scheme, p, j.Params)
	}
	d.tr.pop(s)
	if err != nil {
		return nil, err
	}
	s = d.tr.push("core.New", "")
	m, err := core.New(j.Config, p, st)
	d.tr.pop(s)
	if err != nil {
		return nil, err
	}
	s = d.tr.push("Machine.Warm", "")
	err = m.Warm(j.Warmup)
	d.tr.pop(s)
	if err != nil {
		return nil, err
	}
	s = d.tr.push("Machine.Measure", "")
	r, err := m.Measure(j.Measure)
	d.tr.pop(s)
	if err != nil {
		return nil, err
	}
	r.Scheme = j.Scheme
	runtime.ReadMemStats(&after)
	d.cycles += m.Cycle()
	d.allocs += after.Mallocs - before.Mallocs
	d.allocBytes += after.TotalAlloc - before.TotalAlloc
	d.cells++
	return r, nil
}

// spanRunner wraps a Runner in a named span.
type spanRunner struct {
	name string
	next job.Runner
	tr   *tracer
}

func (s *spanRunner) Run(ctx context.Context, j job.Job) (*stats.Run, error) {
	id := s.tr.push(s.name, "")
	defer s.tr.pop(id)
	return s.next.Run(ctx, j)
}

// resultStore is what the traced stack's store is to its two users:
// store.Cached reads and writes results, job.Traced reads and writes
// encoded traces.
type resultStore interface {
	store.Store
	job.BlobStore
}

// timedStore wraps a store in spans and counts the trace bytes written.
type timedStore struct {
	next      resultStore
	tr        *tracer
	blobBytes int
}

func (s *timedStore) Get(key string) (*stats.Run, bool, error) {
	id := s.tr.push("store.Get", "")
	defer s.tr.pop(id)
	return s.next.Get(key)
}

func (s *timedStore) Put(key string, r *stats.Run) error {
	id := s.tr.push("store.Put", "")
	defer s.tr.pop(id)
	return s.next.Put(key, r)
}

func (s *timedStore) Len() int { return s.next.Len() }

func (s *timedStore) GetBlob(key string) ([]byte, bool, error) {
	id := s.tr.push("store.GetBlob", "")
	defer s.tr.pop(id)
	return s.next.GetBlob(key)
}

func (s *timedStore) PutBlob(key string, raw []byte) error {
	id := s.tr.push("store.PutBlob", "")
	defer s.tr.pop(id)
	s.blobBytes += len(raw)
	return s.next.PutBlob(key, raw)
}

// stack is one grid's runner stack.
type stack struct {
	runner job.Runner
	store  resultStore // grid-traced only
	traced *job.Traced // grid-traced only
	timed  *timedStore // traced grid-traced only
	dec    *decomposed // traced grid-cold only
	dir    string      // the disk tier's directory, removed by close
}

// openStack builds a fresh stack: job.Direct for grid-cold; for
// grid-traced, job.Traced under store.Cached over store.Tiered{Memory,
// Disk} in a new directory. With a tracer the layers are wrapped in spans:
// grid-cold's cell is decomposed into its public calls, grid-traced's
// Runner, Store and BlobStore interfaces are interposed.
func openStack(cfg config, useStore bool, tr *tracer) (*stack, error) {
	if !useStore {
		if tr == nil {
			return &stack{runner: job.Direct{}}, nil
		}
		d := &decomposed{tr: tr}
		return &stack{runner: d, dec: d}, nil
	}
	dir, err := cleanup.tempDir(filepath.Join(cfg.work, "tmp"), "store-")
	if err != nil {
		return nil, err
	}
	disk, err := store.NewDisk(dir)
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir, store: store.Tiered{Fast: store.NewMemory(memoryTier), Slow: disk}}
	s.traced = &job.Traced{Blobs: s.store}
	var next job.Runner = s.traced
	if tr != nil {
		s.timed = &timedStore{next: s.store, tr: tr}
		s.store = s.timed
		s.traced.Blobs = s.timed
		s.traced.Next = &spanRunner{name: "job.Direct", next: job.Direct{}, tr: tr}
		next = &spanRunner{name: "job.Traced", next: s.traced, tr: tr}
	}
	s.runner = store.NewCached(s.store, next)
	return s, nil
}

// close removes the stack's disk tier.
func (s *stack) close() {
	if s.dir != "" {
		_ = os.RemoveAll(s.dir) // cleanup.run retries on exit
	}
}

// pass is one timed run of the whole grid.
type pass struct {
	traced bool
	wall   time.Duration
	cpu    time.Duration
	cells  []cellRec
	spans  []span
	stack  *stack
}

func (p *pass) instructions() uint64 {
	var n uint64
	for _, c := range p.cells {
		n += c.job.Warmup + c.run.Instructions
	}
	return n
}

// runGrid runs grid-cold (useStore false) or grid-traced.
func runGrid(cfg config, useStore bool) (*result, error) {
	rng := cfg.rng()
	// The seed fixes the cell order: experiments.Run crosses the schemes
	// with the benchmarks in the order given (base always first).
	schemes := shuffled(rng, experiments.AllSchemes())
	benches := shuffled(rng, workload.Names())
	small := smallGrids(rng, (1+maxRounds)*smallPerRound)
	res := newResult()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	if err := gridSetup(cfg, useStore, schemes, benches, res, tr); err != nil {
		return nil, err
	}

	// Timed phase: whole rounds (a pass, then a block of small grids and
	// reads) until cfg.seconds have elapsed. A traced run alternates plain
	// and traced passes, at least one of each, so the tracing overhead is
	// measured in the same process.
	sp, err := newSmallPhase(cfg, useStore)
	if err != nil {
		return nil, err
	}
	defer sp.st.close()
	if err := sp.round(small[:smallPerRound], rng, res, false); err != nil {
		return nil, err
	}
	small = small[smallPerRound:]
	var passes []*pass
	steal := startSteal()
	began := time.Now()
	for i := 0; time.Since(began) < cfg.seconds || (cfg.trace && i < 2); i++ {
		if i == maxRounds {
			return nil, fmt.Errorf("%d rounds did not fill %v", i, cfg.seconds)
		}
		p, err := runPass(cfg, useStore, schemes, benches, cfg.trace && i%2 == 1, tr)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		fmt.Printf("pass %d (traced %t): %.3f s wall, %.3f s cpu, %d cells\n", i, p.traced, p.wall.Seconds(), p.cpu.Seconds(), len(p.cells))
		g0, r0 := len(sp.gridMS), len(sp.readMS)
		if err := sp.round(small[i*smallPerRound:(i+1)*smallPerRound], rng, res, true); err != nil {
			return nil, err
		}
		fmt.Printf("round %d: small grid p50 %.3f ms, read p50 %.4f ms\n", i, median(sp.gridMS[g0:]), median(sp.readMS[r0:]))
	}
	steal.print("the timed rounds")
	peak, err := readUsage("self")
	if err != nil {
		return nil, err
	}
	checkPasses(passes, res)
	if useStore {
		if err := checkReplayAgainstDirect(passes[0], res); err != nil {
			return nil, err
		}
	}

	var plain []*pass
	for _, p := range passes {
		if !p.traced {
			plain = append(plain, p)
		}
	}
	var cellMS []float64
	var wall, cpu time.Duration
	var insts uint64
	cells := 0
	for _, p := range plain {
		for _, c := range p.cells {
			cellMS = append(cellMS, ms(c.dur))
		}
		wall += p.wall
		cpu += p.cpu
		insts += p.instructions()
		cells += len(p.cells)
	}
	res.set("minst_per_s", float64(insts)/wall.Seconds()/1e6)
	res.set("cells_per_s", float64(cells)/wall.Seconds())
	res.set("cpu_ms_per_cell", ms(cpu)/float64(cells))
	res.set("peak_rss_mb", float64(peak.PeakRSS)/(1<<20))
	if err := res.setPercentiles(cellMS, percentile, pctSpec{"cell_ms_p50", 50}, pctSpec{"cell_ms_p90", 90}); err != nil {
		return nil, err
	}

	if err := sp.report(res); err != nil {
		return nil, err
	}

	if cfg.trace {
		if err := reportGridLayers(cfg, passes, res, tr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// gridSetup times what the benchmark does before the first cell is
// dispatched — load the programs, plan the grid and, on grid-traced, open
// the store — setupReps times, and reports the medians.
func gridSetup(cfg config, useStore bool, schemes, benches []string, res *result, tr *tracer) error {
	var total, load, plan, open []float64
	spec := job.GridSpec{
		Schemes:    append([]string{job.BaseScheme}, schemes...),
		Benchmarks: benches,
		Warmup:     gridWarmup,
		Measure:    gridMeasure,
	}
	params := steer.DefaultParams()
	spec.Params = &params
	flushWrites()
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		root := tr.push("setup", fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		for _, b := range benches {
			s := tr.push("workload.Load", "")
			if _, err := workload.Load(b); err != nil {
				return err
			}
			tr.pop(s)
		}
		t1 := time.Now()
		s := tr.push("job.GridSpec.Plan", "")
		jobs, err := spec.Plan()
		tr.pop(s)
		if err != nil {
			return err
		}
		t2 := time.Now()
		if useStore {
			s := tr.push("store.open", "")
			st, err := openStack(cfg, true, nil)
			tr.pop(s)
			if err != nil {
				return err
			}
			st.close()
		}
		t3 := time.Now()
		tr.pop(root)
		if len(jobs) != 120 {
			return fmt.Errorf("grid planned %d cells, want 120", len(jobs))
		}
		total = append(total, seconds(t3.Sub(t0)))
		load = append(load, ms(t1.Sub(t0)))
		plan = append(plan, ms(t2.Sub(t1)))
		open = append(open, ms(t3.Sub(t2)))
	}
	res.set("setup_s", median(total))
	res.set("workload.load_ms", median(load))
	res.set("job.plan_ms", median(plan))
	res.set("store.open_ms", median(open))
	return nil
}

// runPass runs the 120-cell grid once through a fresh stack.
func runPass(cfg config, useStore bool, schemes, benches []string, traced bool, tr *tracer) (*pass, error) {
	var ptr *tracer
	if traced {
		ptr = tr
	}
	st, err := openStack(cfg, useStore, ptr)
	if err != nil {
		return nil, err
	}
	defer st.close()
	cr := &cellRunner{next: st.runner, tr: ptr}
	opts := experiments.DefaultOptions()
	opts.Warmup, opts.Measure = gridWarmup, gridMeasure
	opts.Parallelism = 1
	opts.Benchmarks = benches
	opts.Runner = cr

	// Every pass starts from a heap handed back to the OS, as a fresh
	// dcabench process does, so the first pass and the later ones pay for
	// the same page faults.
	debug.FreeOSMemory()
	flushWrites()
	mark := tr.mark()
	cpu0 := selfCPU()
	t0 := time.Now()
	if _, err := experiments.Run(schemes, opts); err != nil {
		return nil, err
	}
	p := &pass{traced: traced, wall: time.Since(t0), cpu: selfCPU() - cpu0, cells: cr.recs, stack: st}
	if traced {
		p.spans = tr.since(mark)
	}
	return p, nil
}

// windowOK reports whether a result covers its job's measured window:
// positive cycles, and the measured instructions short of Measure by less
// than one retire batch. A commit batch is never split, so warm-up may
// overshoot its budget by up to RetireWidth-1 instructions; Measure then
// stops at the same absolute commit count an unbroken run would, and the
// overshoot is missing from the measured part (core.Machine.Warm).
func windowOK(j job.Job, r *stats.Run) bool {
	return r.Cycles > 0 && r.Instructions+uint64(j.Config.RetireWidth) > j.Measure
}

// checkPasses checks every cell of every pass — positive cycles, at least
// the measured window committed — and that every pass, plain or traced,
// reproduced the first pass's result digest cell for cell.
func checkPasses(passes []*pass, res *result) {
	first := make(map[string]string)
	for _, c := range passes[0].cells {
		first[c.job.Key()] = c.digest
	}
	for i, p := range passes {
		res.op(len(p.cells) == 120, "pass %d ran %d cells, want 120", i, len(p.cells))
		for _, c := range p.cells {
			cell := c.job.Scheme + "/" + c.job.Benchmark
			res.op(windowOK(c.job, &c.run),
				"pass %d %s: %d cycles, %d instructions for a %d window", i, cell, c.run.Cycles, c.run.Instructions, c.job.Measure)
			if i > 0 {
				res.op(first[c.job.Key()] == c.digest, "pass %d %s: digest %s differs from pass 0's %s",
					i, cell, c.digest, first[c.job.Key()])
			}
		}
	}
}

// checkReplayAgainstDirect re-runs one cell per benchmark of a
// grid-traced pass through job.Direct, the live emulator, and requires the
// replayed digest.
func checkReplayAgainstDirect(p *pass, res *result) error {
	seen := make(map[string]bool)
	for _, c := range p.cells {
		if seen[c.job.Benchmark] {
			continue
		}
		seen[c.job.Benchmark] = true
		r, err := job.Direct{}.Run(context.Background(), c.job)
		if err != nil {
			return err
		}
		dg := job.ResultDigest(r)
		res.op(dg == c.digest, "%s/%s: direct digest %s, replayed %s", c.job.Scheme, c.job.Benchmark, dg, c.digest)
	}
	return nil
}

// smallPhase runs the small grids in-process through one stack of the
// workload's kind (grid_ms), and after each grid reads settled results
// back the way the stack serves them (read_ms): grid-traced reads the
// store's memory tier, grid-cold the in-memory results; either way a read
// is the lookup plus the result's digest. It runs in rounds, one after
// each timed pass, so its samples see the same stretch of host time as
// the passes, and within a round the reads are spread between the grids
// rather than bunched at its end: the host's speed shifts from second to
// second, and a bunch of reads would catch only one of its states.
type smallPhase struct {
	st      *stack
	held    map[string]*stats.Run // the readWindow most recent results
	digests map[string]string
	keys    []string // held keys, oldest first
	gridMS  []float64
	readMS  []float64
}

func newSmallPhase(cfg config, useStore bool) (*smallPhase, error) {
	st, err := openStack(cfg, useStore, nil)
	if err != nil {
		return nil, err
	}
	return &smallPhase{st: st, held: make(map[string]*stats.Run), digests: make(map[string]string)}, nil
}

// round runs specs, reading readsPerGrid settled results after each one.
// An untimed round (the warm-up) is checked but records no samples.
func (s *smallPhase) round(specs []job.GridSpec, rng interface{ IntN(int) int }, res *result, timed bool) error {
	// Start from a collected heap with no write-back pending: how much the
	// pass before left behind would otherwise set the round's pace.
	runtime.GC()
	flushWrites()
	read := func(k string) (*stats.Run, bool, error) { r, ok := s.held[k]; return r, ok, nil }
	if s.st.store != nil {
		read = s.st.store.Get
	}
	for _, spec := range specs {
		jobs, err := spec.Plan()
		if err != nil {
			return err
		}
		t0 := time.Now()
		runs, err := job.RunAll(context.Background(), jobs, job.PoolOptions{Parallelism: 1, Runner: s.st.runner})
		if timed {
			s.gridMS = append(s.gridMS, ms(time.Since(t0)))
		}
		res.op(err == nil, "small grid %v: %v", spec, err)
		if err != nil {
			continue
		}
		for i, j := range jobs {
			s.settle(j, runs[i], res)
		}
		for i := 0; i < readsPerGrid; i++ {
			k := s.keys[rng.IntN(len(s.keys))]
			t0 := time.Now()
			r, ok, err := read(k)
			var dg string
			if ok && err == nil {
				dg = job.ResultDigest(r)
			}
			if timed {
				s.readMS = append(s.readMS, ms(time.Since(t0)))
			}
			res.op(ok && err == nil && dg == s.digests[k], "read %s: found %t, err %v, digest %s, want %s", k, ok, err, dg, s.digests[k])
		}
	}
	return nil
}

// settle checks a small cell's result and holds it for the reads, letting
// go of the oldest beyond readWindow so the benchmark's own heap stays the
// same size from round to round.
func (s *smallPhase) settle(j job.Job, r *stats.Run, res *result) {
	res.op(windowOK(j, r), "small cell %s/%s: %d cycles, %d instructions for a %d window",
		j.Scheme, j.Benchmark, r.Cycles, r.Instructions, j.Measure)
	k := j.Key()
	cp := detach(r)
	s.held[k] = &cp
	s.digests[k] = job.ResultDigest(r)
	s.keys = append(s.keys, k)
	if len(s.keys) > readWindow {
		delete(s.held, s.keys[0])
		delete(s.digests, s.keys[0])
		s.keys = s.keys[1:]
	}
}

// report sets grid_ms and read_ms from every round's samples.
func (s *smallPhase) report(res *result) error {
	if err := res.setPercentiles(s.gridMS, percentile, pctSpec{"grid_ms_p50", 50}, pctSpec{"grid_ms_p90", 90}); err != nil {
		return err
	}
	return res.setPercentiles(s.readMS, readPercentile, pctSpec{"read_ms_p50", 50}, pctSpec{"read_ms_p99", 99})
}

// reportGridLayers turns the traced passes' spans into the per-layer
// metrics (totals per pass), prints the self-time table and the tracing
// overhead, and writes the spans out.
func reportGridLayers(cfg config, passes []*pass, res *result, tr *tracer) error {
	var spans []span
	var wall, plainWall, cellSum time.Duration
	var insts, plainInsts uint64
	var cells, plainCells, sumCycles uint64
	var tm job.TracedMetrics
	var blobBytes, dCycles, dAllocs, dAllocBytes, dCells uint64
	n := 0
	for _, p := range passes {
		if !p.traced {
			plainWall += p.wall
			plainInsts += p.instructions()
			plainCells += uint64(len(p.cells))
			continue
		}
		n++
		spans = append(spans, p.spans...)
		wall += p.wall
		insts += p.instructions()
		cells += uint64(len(p.cells))
		for _, c := range p.cells {
			sumCycles += c.run.Cycles
		}
		for _, s := range p.spans {
			if s.Name == "cell" {
				cellSum += s.End - s.Start
			}
		}
		if st := p.stack; st.traced != nil {
			m := st.traced.Metrics()
			tm.Recordings += m.Recordings
			tm.Replays += m.Replays
			tm.Extensions += m.Extensions
			tm.LiveFallbacks += m.LiveFallbacks
		}
		if st := p.stack; st.timed != nil {
			blobBytes += uint64(st.timed.blobBytes)
		}
		if d := p.stack.dec; d != nil {
			dCycles += d.cycles
			dAllocs += d.allocs
			dAllocBytes += d.allocBytes
			dCells += uint64(d.cells)
		}
	}
	rows := selfTimes(spans)
	per := func(d time.Duration) float64 { return ms(d) / float64(n) }
	overhead := wall - cellSum
	res.set("workload.cell_load_ms", per(selfOf(rows, "workload.Load")))
	res.set("steer.build_ms", per(selfOf(rows, "steer.NewWithParams")))
	res.set("core.build_ms", per(selfOf(rows, "core.New")))
	warm, measure := selfOf(rows, "Machine.Warm"), selfOf(rows, "Machine.Measure")
	res.set("core.warm_s", per(warm)/1e3)
	res.set("core.measure_s", per(measure)/1e3)
	if dCycles > 0 {
		res.set("core.ns_per_cycle", float64(warm+measure)/float64(dCycles))
	}
	if dCells > 0 {
		res.set("core.allocs_per_cell", float64(dAllocs)/float64(dCells))
		res.set("core.alloc_mb_per_cell", float64(dAllocBytes)/float64(dCells)/(1<<20))
	}
	res.set("core.sim_cycles", float64(sumCycles)/float64(n))
	res.set("job.digest_ms", per(selfOf(rows, "job.ResultDigest")))
	res.set("job.runner_self_ms", per(selfOf(rows, "cell")))
	res.set("job.direct_ms", per(selfOf(rows, "job.Direct")))
	res.set("experiments.overhead_ms", per(overhead))
	res.set("trace.record_ms", per(selfOf(rows, "job.Traced")))
	res.set("trace.recordings", float64(tm.Recordings)/float64(n))
	res.set("trace.replays", float64(tm.Replays)/float64(n))
	res.set("trace.extensions", float64(tm.Extensions)/float64(n))
	res.set("trace.live_fallbacks", float64(tm.LiveFallbacks)/float64(n))
	res.set("trace.blob_mb", float64(blobBytes)/float64(n)/(1<<20))
	res.set("store.get_ms", per(selfOf(rows, "store.Get")))
	res.set("store.put_ms", per(selfOf(rows, "store.Put")))
	res.set("store.blob_get_ms", per(selfOf(rows, "store.GetBlob")))
	res.set("store.blob_put_ms", per(selfOf(rows, "store.PutBlob")))

	rows = append(rows, layerTime{Name: "experiments.overhead", Count: n, Self: overhead})
	printSelfTimes(os.Stdout, fmt.Sprintf("%s, %d traced pass(es)", cfg.workload, n), rows, wall)
	fmt.Printf("tracing overhead: minst_per_s untraced %.4f traced %.4f (%+.2f%%); cells_per_s untraced %.3f traced %.3f (%+.2f%%)\n",
		float64(plainInsts)/plainWall.Seconds()/1e6, float64(insts)/wall.Seconds()/1e6,
		100*(float64(insts)/wall.Seconds()/(float64(plainInsts)/plainWall.Seconds())-1),
		float64(plainCells)/plainWall.Seconds(), float64(cells)/wall.Seconds(),
		100*(float64(cells)/wall.Seconds()/(float64(plainCells)/plainWall.Seconds())-1))
	path := filepath.Join(cfg.work, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(path, tr.since(0)); err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", path)
	return nil
}
