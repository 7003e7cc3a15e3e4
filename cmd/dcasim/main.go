// Command dcasim runs one benchmark under one steering scheme on the
// clustered timing simulator and prints the full measurement record.
//
// Named-benchmark runs go through the job layer (internal/job): the cell
// is planned into a canonical job whose content digest is printed with the
// results — the same key cmd/dcaserve would cache and serve it under.
// Assembly-file runs, pipeline traces, and machine overrides drive the
// core directly.
//
// Usage:
//
//	dcasim -bench compress -scheme general
//	dcasim -bench go -scheme fifo            # FIFO queues implied
//	dcasim -bench li -machine base           # the conventional baseline
//	dcasim -bench go -clusters 4             # a 4-cluster symmetric machine
//	dcasim -program prog.s -scheme general   # assemble and run a file
//	dcasim -bench go -pipetrace 5000         # pipeline trace from cycle 5000
//	dcasim -bench go -replay go.trace        # fetch from a dcatrace recording
//	dcasim -bench go -attrib                 # stall taxonomy: where cycles went
//	dcasim -bench go -konata go.kanata       # pipeline trace for the Konata viewer
//	dcasim -bench go -disagree               # scheme×scheme steering disagreement
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/asm"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/probe"
	"repro/internal/prog"
	"repro/internal/stats"
	"repro/internal/steer"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		bench      = flag.String("bench", "compress", "workload name (see -list)")
		file       = flag.String("program", "", "assembly file to run instead of a named workload")
		scheme     = flag.String("scheme", "general", "steering scheme (see -list)")
		machine    = flag.String("machine", "", "machine override: base | clustered | fifo | ub")
		clusters   = flag.Int("clusters", 2, "cluster count (2 = the paper's asymmetric machine, else config.ClusteredN)")
		warmup     = flag.Uint64("warmup", 100_000, "warm-up instructions")
		measure    = flag.Uint64("measure", 1_000_000, "measured instructions (0 = run to halt)")
		list       = flag.Bool("list", false, "list workloads and schemes, then exit")
		pipetrace  = flag.Uint64("pipetrace", 0, "print a pipeline trace for 30 cycles starting at this cycle")
		replay     = flag.String("replay", "", "fetch the oracle stream from this dcatrace recording instead of the live emulator")
		attrib     = flag.Bool("attrib", false, "attribute every measured cycle to a stall class and print the breakdown")
		konata     = flag.String("konata", "", "write a Konata (Kanata) pipeline trace of the run to this file")
		konataFrom = flag.Uint64("konata-from", 0, "first cycle of the Konata export window")
		konataTo   = flag.Uint64("konata-to", 0, "last cycle of the Konata export window (0 = to the end)")
		disagree   = flag.Bool("disagree", false, "replay one recorded oracle stream through every scheme and print the steering disagreement matrix")
	)
	flag.Parse()

	if *list {
		fmt.Println("workloads:", workload.Names())
		fmt.Println("schemes:  ", steer.Names())
		return
	}
	if err := job.ValidateClusters(*clusters); err != nil {
		fatal(err)
	}
	if err := job.ValidateScheme(*scheme); err != nil {
		fatal(err)
	}
	if *disagree {
		if err := runDisagree(*bench, *clusters, *warmup, *measure); err != nil {
			fatal(err)
		}
		return
	}

	// Assemble the requested probe stack. Probes are passive — the printed
	// measurements and the result digest are bit-identical with and without
	// them — so they attach to either execution path uniformly.
	var (
		at     *probe.Attribution
		fore   *probe.Forensics
		kon    *probe.Konata
		kfile  *os.File
		probes []core.Probe
	)
	if *attrib {
		at = probe.NewAttribution()
		fore = &probe.Forensics{}
		probes = append(probes, at, fore)
	}
	if *konata != "" {
		f, err := os.Create(*konata)
		if err != nil {
			fatal(err)
		}
		kfile = f
		kon = probe.NewKonata(f)
		kon.From, kon.To = *konataFrom, *konataTo
		probes = append(probes, kon)
	}
	stack := probe.Multi(probes...)

	var (
		r   *stats.Run
		cfg *config.Config
		key string
		err error
	)
	if *file == "" && *machine == "" && *pipetrace == 0 && *replay == "" {
		// The standard case is one cell of the evaluation grid: plan it as
		// a canonical job and execute through the run layer.
		var j job.Job
		j, err = job.Spec{
			Scheme:    *scheme,
			Benchmark: *bench,
			Clusters:  *clusters,
			Warmup:    *warmup,
			Measure:   *measure,
		}.Plan()
		if err != nil {
			fatal(err)
		}
		cfg, key = j.Config, j.Key()
		if stack != nil {
			r, err = job.RunProbed(context.Background(), j, stack)
		} else {
			r, err = job.Direct{}.Run(context.Background(), j)
		}
	} else {
		r, cfg, err = runDirect(*file, *bench, *scheme, *machine, *clusters, *warmup, *measure, *pipetrace, *replay, stack)
	}
	if err != nil {
		fatal(err)
	}

	name := r.Benchmark
	t := stats.NewTable(fmt.Sprintf("%s on %s (%s machine)", *scheme, name, cfg.Name),
		"metric", "value")
	if key != "" {
		t.AddRow("job key", key[:16]+"…")
	}
	// The full-result digest: what the trace smoke compares between live
	// and replayed runs (bit-identity, not just matching headline numbers).
	t.AddRow("result digest", job.ResultDigest(r))
	t.AddRow("cycles", fmt.Sprintf("%d", r.Cycles))
	t.AddRow("instructions", fmt.Sprintf("%d", r.Instructions))
	t.AddRow("IPC", fmt.Sprintf("%.3f", r.IPC()))
	t.AddRow("communications/instr", fmt.Sprintf("%.4f", r.CommPerInstr()))
	t.AddRow("critical comm/instr", fmt.Sprintf("%.4f", r.CriticalCommPerInstr()))
	if len(r.Steered) > 2 {
		split := ""
		for c, n := range r.Steered {
			if c > 0 {
				split += " / "
			}
			split += fmt.Sprintf("%d", n)
		}
		t.AddRow("steered per cluster", split)
	} else {
		t.AddRow("steered int/fp", fmt.Sprintf("%d / %d", r.SteeredAt(0), r.SteeredAt(1)))
	}
	t.AddRow("replicated regs/cycle", fmt.Sprintf("%.2f", r.ReplicatedRegsAvg))
	t.AddRow("branch mispredict rate", fmt.Sprintf("%.4f", r.MispredictRate()))
	t.AddRow("L1D / L1I miss rate", fmt.Sprintf("%.4f / %.4f", r.L1DMissRate, r.L1IMissRate))
	fmt.Print(t.String())

	label := "readyFP - readyINT"
	if cfg.NumClusters() > 2 {
		label = "max-min ready spread"
	}
	fmt.Printf("\nworkload balance (%s, %% of cycles):\n", label)
	for d := -stats.BalanceRange; d <= stats.BalanceRange; d++ {
		bar := ""
		for i := 0; i < int(r.Balance.Percent(d)); i++ {
			bar += "#"
		}
		fmt.Printf("%+4d %5.1f%% %s\n", d, r.Balance.Percent(d), bar)
	}

	if at != nil {
		fmt.Printf("\ncycle attribution (%d measured cycles, total and exclusive):\n%s",
			at.Total(), at.Report().Table())
		fmt.Printf("\nsteering decisions (%d, by deciding mechanism):\n%s",
			fore.Decisions(), fore.ReasonTable())
	}
	if kon != nil {
		if err := kon.Close(); err != nil {
			fatal(err)
		}
		if err := kfile.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nKonata pipeline trace written to %s (open with the Konata viewer)\n", *konata)
	}
}

// runDisagree replays one oracle recording of the benchmark through every
// registered steering scheme and prints how often each pair placed the
// same instruction differently.
func runDisagree(bench string, clusters int, warmup, measure uint64) error {
	schemes := steer.Names()
	sort.Strings(schemes)
	d, err := job.Disagreement(context.Background(), job.GridSpec{
		Schemes:    schemes,
		Benchmarks: []string{bench},
		Clusters:   clusters,
		Warmup:     warmup,
		Measure:    measure,
	})
	if err != nil {
		return err
	}
	fmt.Printf("steering disagreement on %s (%% of decisions placed on different clusters;\none oracle recording replayed through every scheme, decisions index-aligned):\n\n%s",
		bench, d.Table())
	return nil
}

// runDirect is the power-user path — assembly files, pipeline traces,
// machine overrides, trace replay — driving the core directly instead of
// the job layer. The extra probe stack (attribution, Konata) composes with
// the text pipeline tracer through the same seam.
func runDirect(file, bench, scheme, machine string, clusters int, warmup, measure, traceAt uint64, replay string, extra core.Probe) (*stats.Run, *config.Config, error) {
	var p *prog.Program
	var err error
	if file != "" {
		src, rerr := os.ReadFile(file)
		if rerr != nil {
			return nil, nil, rerr
		}
		p, err = asm.Assemble(filepath.Base(file), string(src))
	} else {
		p, err = workload.Load(bench)
	}
	if err != nil {
		return nil, nil, err
	}

	var cfg *config.Config
	switch machine {
	case "":
		cfg = job.ConfigFor(scheme, clusters)
	case "base":
		cfg = config.Base()
	case "clustered":
		cfg = config.Clustered()
	case "fifo":
		cfg = config.FIFOClustered()
	case "ub":
		cfg = config.UpperBound()
	default:
		return nil, nil, fmt.Errorf("unknown machine %q", machine)
	}
	if clusters != 2 && machine != "" {
		if machine != "clustered" && machine != "fifo" {
			return nil, nil, fmt.Errorf("-clusters only applies to the clustered machines, not %q", machine)
		}
		if machine == "fifo" {
			cfg = config.ClusteredNFIFO(clusters)
		} else {
			cfg = config.ClusteredN(clusters)
		}
	}

	// Pseudo-schemes run the machine's naive rule, mirroring job.Direct.
	var st core.Steerer
	if scheme == job.BaseScheme || scheme == job.UBScheme {
		st = core.NaiveSteerer{}
	} else {
		params := steer.DefaultParams()
		params.Clusters = cfg.NumClusters()
		st, err = steer.NewWithParams(scheme, p, params)
		if err != nil {
			return nil, nil, err
		}
	}
	var m *core.Machine
	if replay != "" {
		raw, rerr := os.ReadFile(replay)
		if rerr != nil {
			return nil, nil, rerr
		}
		tr, derr := trace.Decode(raw)
		if derr != nil {
			return nil, nil, derr
		}
		rep, rerr := trace.NewReplayer(tr, p)
		if rerr != nil {
			return nil, nil, rerr
		}
		m, err = core.NewWithOracle(cfg, p, st, rep)
	} else {
		m, err = core.New(cfg, p, st)
	}
	if err != nil {
		return nil, nil, err
	}
	// The text pipeline tracer rides the probe seam like every other
	// observer (core.TracerProbe adapts the legacy Tracer interface), so
	// -pipetrace composes with -attrib and -konata on one machine.
	if traceAt > 0 {
		extra = probe.Multi(extra,
			core.TracerProbe(&core.TextTracer{W: os.Stdout, From: traceAt, To: traceAt + 30}))
	}
	if extra != nil {
		m.SetProbe(extra)
	}
	r, err := m.RunWithWarmup(warmup, measure)
	if err != nil {
		return nil, nil, err
	}
	r.Scheme = scheme
	return r, cfg, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dcasim:", err)
	os.Exit(1)
}
