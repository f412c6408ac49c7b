// Command wnbench regenerates the tables and figures of the paper's
// evaluation. With no flags it runs the whole suite at the fast default
// protocol; -exp selects one experiment (-exp list enumerates them) and
// -full switches to the paper's 3x9-trace protocol at paper-scale inputs.
//
// Every study fans its independent simulation cells out through the
// internal/sweep job engine: -parallel sets the worker count (default: all
// CPUs), -cache persists results under their spec hash so a repeated run
// skips already-simulated cells, and -progress renders a live done/total
// line while the sweep runs. Output is byte-identical at any -parallel
// value and from a warm -cache.
//
// Usage:
//
//	wnbench [-exp all|list|table1|fig1|...|areapower]
//	        [-full] [-traces N] [-invocations N] [-out DIR] [-samples N]
//	        [-parallel N] [-cache DIR] [-progress]
//	        [-faultpoints N] [-faultbench A,B] [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"whatsnext/internal/core"
	"whatsnext/internal/energy"
	"whatsnext/internal/experiments"
	"whatsnext/internal/sweep"
	"whatsnext/internal/synthmodel"
)

// runCtx carries the shared experiment inputs to each registry entry.
type runCtx struct {
	w       io.Writer
	proto   experiments.Protocol
	outDir  string
	samples int

	faultPoints int    // kill points per fault-injection cell
	faultBench  string // comma-separated benchmark filter for -exp faults
}

// expEntry is one runnable experiment in the registry.
type expEntry struct {
	name string
	desc string
	run  func(*runCtx) error
}

// registry lists every experiment in the order `-exp all` runs them.
var registry = []expEntry{
	{"table1", "Table I: benchmark traits (WN-amenable instruction share, baseline runtime)", runTable1},
	{"fig2", "Figure 2: Conv2d output, baseline vs WN at the same truncated cycle budget (writes PGMs)", runFig2},
	{"fig3", "Figure 3: glucose monitoring, input sampling vs anytime processing", runFig3},
	{"fig9", "Figure 9: runtime-quality curves for all six benchmarks at 4/8-bit subwords", runFig9},
	{"fig10", "Figure 10: speedup and quality on the checkpointing volatile processor", runFig10},
	{"fig11", "Figure 11: speedup and quality on the non-volatile processor", runFig11},
	{"fig12", "Figure 12: MatMul SWP with/without subword-vectorized loads", runFig12},
	{"fig13", "Figure 13: Conv2d memoization + zero skipping case study", runFig13},
	{"fig14", "Figure 14: MatAdd provisioned vs unprovisioned vectorized addition", runFig14},
	{"fig15", "Figure 15: Conv2d subword pipelining at 1-4 bit subwords", runFig15},
	{"fig16", "Figure 16: anytime imaging pipeline outputs (writes PGMs)", runFig16},
	{"fig17", "Figure 17: Var streaming, WN estimates vs input sampling", runFig17},
	{"fig1", "Figure 1: streaming arrival-rate study (precise drops inputs, WN keeps up)", runFig1},
	{"ablation", "Ablations: skim points, watchdog interval, capacitor size, memo capacity, consistency mechanisms", runAblation},
	{"env", "Extension: harvest environments (Wi-Fi, solar, thermal, motion)", runEnv},
	{"faults", "Fault injection: strided power failures over the Table I kernels under Clank and NVP", runFaults},
	{"progress", "Forward-progress certification: static per-region WCEC vs measured commit gaps, minimum viable capacitor", runProgress},
	{"nn", "NN inference: accuracy vs energy across subword widths (progress-embedded kernels)", runNN},
	{"areapower", "Section V-D: synthesis area/power/Fmax model", runAreaPower},
}

func main() {
	os.Exit(realMain())
}

// realMain returns the process exit code instead of calling os.Exit, so the
// deferred profile writers installed below always flush.
func realMain() int {
	var (
		exp         = flag.String("exp", "all", "experiment to run ('list' enumerates)")
		full        = flag.Bool("full", false, "paper protocol: 9 traces x 3 invocations, paper-scale inputs")
		traces      = flag.Int("traces", 0, "override number of harvest traces")
		invocations = flag.Int("invocations", 0, "override invocations per trace")
		outDir      = flag.String("out", "out", "directory for generated images and CSVs")
		samples     = flag.Int("samples", 120, "points per runtime-quality curve")
		parallel    = flag.Int("parallel", 0, "sweep workers (0 = all CPUs, 1 = serial)")
		cacheDir    = flag.String("cache", "", "result-cache directory (repeat runs skip simulated cells)")
		progress    = flag.Bool("progress", false, "render live sweep progress on stderr")
		faultPoints = flag.Int("faultpoints", 32, "kill points per fault-injection cell (-exp faults)")
		faultBench  = flag.String("faultbench", "", "comma-separated benchmark filter for -exp faults (default: all)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wnbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "wnbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "wnbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile reflects live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "wnbench:", err)
			}
		}()
	}

	if *exp == "list" {
		listExperiments(os.Stdout)
		return 0
	}
	if err := validateExp(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "wnbench:", err)
		return 2
	}

	proto := experiments.DefaultProtocol()
	if *full {
		proto = experiments.FullProtocol()
	}
	if *traces > 0 {
		proto.Traces = *traces
	}
	if *invocations > 0 {
		proto.Invocations = *invocations
	}

	opts := sweep.Options{Workers: *parallel}
	if *cacheDir != "" {
		dc, err := sweep.NewDiskCache(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wnbench:", err)
			return 1
		}
		opts.Cache = dc
	}
	if *progress {
		opts.OnProgress = func(p sweep.Progress) {
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d jobs done (%d cache hits)   ", p.Done, p.Total, p.CacheHits)
		}
	}
	eng := sweep.New(opts)
	proto.Runner = eng

	ctx := &runCtx{w: os.Stdout, proto: proto, outDir: *outDir, samples: *samples,
		faultPoints: *faultPoints, faultBench: *faultBench}
	err := run(*exp, ctx)
	if *progress {
		fmt.Fprintln(os.Stderr)
	}
	if m := eng.Metrics(); m.Submitted > 0 && (*progress || *cacheDir != "") {
		fmt.Fprintf(os.Stderr, "sweep: %s on %d workers\n", m, eng.Workers())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wnbench:", err)
		return 1
	}
	return 0
}

// validateExp rejects unknown -exp names, listing the valid ones.
func validateExp(name string) error {
	if name == "all" {
		return nil
	}
	var names []string
	for _, e := range registry {
		if e.name == name {
			return nil
		}
		names = append(names, e.name)
	}
	return fmt.Errorf("unknown experiment %q; valid names: all, list, %s",
		name, strings.Join(names, ", "))
}

// listExperiments prints the registry with one-line descriptions.
func listExperiments(w io.Writer) {
	fmt.Fprintf(w, "%-10s %s\n", "all", "run every experiment below, in order")
	for _, e := range registry {
		fmt.Fprintf(w, "%-10s %s\n", e.name, e.desc)
	}
}

func run(exp string, ctx *runCtx) error {
	for _, e := range registry {
		if exp != "all" && exp != e.name {
			continue
		}
		if err := e.run(ctx); err != nil {
			return err
		}
		fmt.Fprintln(ctx.w)
	}
	return nil
}

func runTable1(c *runCtx) error {
	rows, err := experiments.Table1(c.proto)
	if err != nil {
		return err
	}
	experiments.PrintTable1(c.w, rows)
	return nil
}

func runFig2(c *runCtx) error {
	r, err := experiments.Figure2(c.proto, c.outDir)
	if err != nil {
		return err
	}
	experiments.PrintFigure2(c.w, r)
	return nil
}

func runFig3(c *runCtx) error {
	r, err := experiments.Figure3(7)
	if err != nil {
		return err
	}
	experiments.PrintFigure3(c.w, r)
	return nil
}

func runFig9(c *runCtx) error {
	curves, err := experiments.Figure9(c.proto, c.samples)
	if err != nil {
		return err
	}
	experiments.PrintFigure9(c.w, curves)
	if c.outDir != "" {
		paths, err := experiments.WriteFigure9CSV(c.outDir, curves)
		if err != nil {
			return err
		}
		fmt.Fprintf(c.w, "wrote %d fig9 CSV series to %s\n", len(paths), c.outDir)
	}
	return nil
}

func runFig10(c *runCtx) error {
	rows, err := experiments.SpeedupStudy(core.ProcClank, c.proto)
	if err != nil {
		return err
	}
	experiments.PrintSpeedup(c.w, "Figure 10: speedup and quality on the checkpointing volatile processor", rows)
	return nil
}

func runFig11(c *runCtx) error {
	rows, err := experiments.SpeedupStudy(core.ProcNVP, c.proto)
	if err != nil {
		return err
	}
	experiments.PrintSpeedup(c.w, "Figure 11: speedup and quality on the non-volatile processor", rows)
	return nil
}

func runFig12(c *runCtx) error {
	rows, err := experiments.Figure12(c.proto)
	if err != nil {
		return err
	}
	experiments.PrintFigure12(c.w, rows)
	return nil
}

func runFig13(c *runCtx) error {
	rows, err := experiments.Figure13(c.proto)
	if err != nil {
		return err
	}
	experiments.PrintFigure13(c.w, rows)
	return nil
}

func runFig14(c *runCtx) error {
	prov, unprov, err := experiments.Figure14(c.proto, c.samples)
	if err != nil {
		return err
	}
	experiments.PrintFigure14(c.w, prov, unprov)
	return nil
}

func runFig15(c *runCtx) error {
	rows, err := experiments.Figure15(c.proto)
	if err != nil {
		return err
	}
	experiments.PrintFigure15(c.w, rows)
	return nil
}

func runFig16(c *runCtx) error {
	r, err := experiments.Figure16(c.proto, c.outDir)
	if err != nil {
		return err
	}
	experiments.PrintFigure16(c.w, r)
	return nil
}

func runFig17(c *runCtx) error {
	pts, avg, err := experiments.Figure17(c.proto)
	if err != nil {
		return err
	}
	experiments.PrintFigure17(c.w, pts, avg)
	return nil
}

func runFig1(c *runCtx) error {
	rows, err := experiments.StreamStudy(c.proto, 16)
	if err != nil {
		return err
	}
	experiments.PrintStream(c.w, rows)
	return nil
}

func runAblation(c *runCtx) error {
	rows, err := experiments.SkimAblation(c.proto)
	if err != nil {
		return err
	}
	experiments.PrintSkimAblation(c.w, rows)
	fmt.Fprintln(c.w)
	wd, err := experiments.WatchdogSweep(c.proto, []uint64{1024, 2048, 4096, 8192, 65536})
	if err != nil {
		return err
	}
	experiments.PrintWatchdogSweep(c.w, wd)
	fmt.Fprintln(c.w)
	caps, err := experiments.CapacitorSweep(c.proto, []float64{2, 4.7, 10, 22, 47})
	if err != nil {
		return err
	}
	experiments.PrintCapacitorSweep(c.w, caps)
	fmt.Fprintln(c.w)
	memo, err := experiments.MemoEntriesSweep(c.proto, []int{4, 16, 64, 256})
	if err != nil {
		return err
	}
	experiments.PrintMemoEntriesSweep(c.w, memo)
	fmt.Fprintln(c.w)
	cons, err := experiments.ConsistencySweep(c.proto)
	if err != nil {
		return err
	}
	experiments.PrintConsistencySweep(c.w, cons)
	return nil
}

func runEnv(c *runCtx) error {
	rows, err := experiments.EnvironmentStudy(c.proto)
	if err != nil {
		return err
	}
	experiments.PrintEnvironments(c.w, rows)
	return nil
}

// runFaults drives the injection study and fails the invocation (non-zero
// exit) on any witnessed divergence, so CI catches crash-consistency
// regressions without parsing the table.
func runFaults(c *runCtx) error {
	var benches []string
	if c.faultBench != "" {
		benches = strings.Split(c.faultBench, ",")
	}
	rows, err := experiments.FaultStudy(c.proto, benches, c.faultPoints)
	if err != nil {
		return err
	}
	experiments.PrintFaults(c.w, rows)
	if !experiments.FaultsClean(rows) {
		return fmt.Errorf("fault injection witnessed crash-consistency divergences")
	}
	return nil
}

// runProgress fails the invocation if any dynamic commit gap exceeds its
// certified static bound.
func runProgress(c *runCtx) error {
	rows, err := experiments.ProgressStudy(c.proto)
	if err != nil {
		return err
	}
	experiments.PrintProgress(c.w, rows)
	return nil
}

func runNN(c *runCtx) error {
	rows, err := experiments.NNStudy(c.proto)
	if err != nil {
		return err
	}
	experiments.PrintNN(c.w, rows)
	return nil
}

func runAreaPower(c *runCtx) error {
	fmt.Fprintln(c.w, synthmodel.Evaluate(energy.DefaultDeviceConfig().ClockHz))
	return nil
}
