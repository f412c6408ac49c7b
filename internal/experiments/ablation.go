package experiments

import (
	"fmt"
	"io"

	"whatsnext/internal/compiler"
	"whatsnext/internal/core"
	"whatsnext/internal/cpu"
	"whatsnext/internal/energy"
	"whatsnext/internal/intermittent"
	"whatsnext/internal/quality"
	"whatsnext/internal/sweep"
	"whatsnext/internal/workloads"
)

// Ablation studies for the design choices the paper motivates but does not
// sweep exhaustively: the value of skim points themselves, the watchdog
// interval of the Clank runtime, the storage capacitor size, and the memo
// table capacity (the paper's footnote: "more entries only provides modest
// additional improvements"). Each sweep point is an independent sweep job;
// the jobs of one study share their harvest trace.

// SkimAblationRow compares a WN build with and without skim points under
// harvested power.
type SkimAblationRow struct {
	Benchmark    string
	WithSkim     float64 // speedup vs precise
	WithoutSkim  float64
	SkimNRMSE    float64
	NoSkimCycles uint64
}

// SkimAblation isolates the contribution of skim points: the same subword-
// pipelined/vectorized binary is run with and without SKM insertion. With
// no skim point the application must always run to the precise result, so
// the anytime passes become pure overhead.
func SkimAblation(proto Protocol) ([]SkimAblationRow, error) {
	batch := &batchTable{}
	var jobs []sweep.Job
	for _, b := range workloads.All() {
		p := proto.params(b)
		jobs = append(jobs, sweep.Job{
			Spec: sweep.Spec{
				Experiment: "ablation/skim",
				Kernel:     b.Name,
				Variant:    fmt.Sprintf("%s/%s4", b.Name, b.Mode),
				Processor:  core.ProcClank.String(),
				Source:     string(energy.SourceWiFi),
				TraceSeed:  77,
				InputSeed:  1,
				Params:     specParams(p),
			},
			Run: func() (any, error) { return runSkimAblation(batch, b, p) },
		})
	}
	rows, err := runSweep[SkimAblationRow](proto.runner(), jobs)
	if err != nil {
		return nil, fmt.Errorf("skim ablation: %w", err)
	}
	return rows, nil
}

func runSkimAblation(batch *batchTable, b *workloads.Benchmark, p workloads.Params) (SkimAblationRow, error) {
	in := b.Inputs(p, 1)
	golden := b.Golden(p, in)

	precise, err := PreciseVariant(b, p).Compile()
	if err != nil {
		return SkimAblationRow{}, err
	}
	k := b.Build(p, 4, true)
	withSkim, err := compiler.Compile(k, compiler.Options{Mode: b.Mode})
	if err != nil {
		return SkimAblationRow{}, err
	}
	noSkim, err := compiler.Compile(k, compiler.Options{Mode: b.Mode, NoSkim: true})
	if err != nil {
		return SkimAblationRow{}, err
	}

	run := func(c *compiler.Compiled) (uint64, []float64, error) {
		sys := intermittentSystem(core.ProcClank, batch.trace(77))
		if err := sys.Load(c); err != nil {
			return 0, nil, err
		}
		res, err := sys.RunInput(in)
		if err != nil {
			return 0, nil, err
		}
		out, err := sys.Output(b.Output)
		return res.TotalCycles(), out, err
	}
	pc, _, err := run(precise)
	if err != nil {
		return SkimAblationRow{}, err
	}
	sc, sout, err := run(withSkim)
	if err != nil {
		return SkimAblationRow{}, err
	}
	nc, _, err := run(noSkim)
	if err != nil {
		return SkimAblationRow{}, err
	}
	return SkimAblationRow{
		Benchmark:    b.Name,
		WithSkim:     float64(pc) / float64(sc),
		WithoutSkim:  float64(pc) / float64(nc),
		SkimNRMSE:    quality.NRMSE(sout, golden),
		NoSkimCycles: nc,
	}, nil
}

// PrintSkimAblation renders the study.
func PrintSkimAblation(w io.Writer, rows []SkimAblationRow) {
	fmt.Fprintf(w, "Ablation: skim points (4-bit WN builds on the checkpointing processor)\n")
	fmt.Fprintf(w, "%-10s %12s %14s %12s\n", "Benchmark", "with skim", "without skim", "skim NRMSE%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %11.2fx %13.2fx %12.3f\n", r.Benchmark, r.WithSkim, r.WithoutSkim, r.SkimNRMSE)
	}
}

// WatchdogRow is one point of the Clank watchdog-interval sweep.
type WatchdogRow struct {
	WatchdogCycles uint64
	PreciseCycles  uint64 // wall-clock completion of the precise build
	Checkpoints    uint64
	// Livelocked reports that the configuration cannot make forward
	// progress: with no idempotency violations to force checkpoints, a
	// watchdog interval longer than one capacitor charge re-executes the
	// same window after every outage, forever.
	Livelocked bool
}

// SimulatedCycles reports the run length for sweep accounting.
func (r WatchdogRow) SimulatedCycles() uint64 { return r.PreciseCycles }

// WatchdogSweep quantifies the re-execution/checkpoint-overhead trade-off
// that sets the Clank baseline: small intervals checkpoint constantly,
// large intervals re-execute large windows after every outage.
func WatchdogSweep(proto Protocol, intervals []uint64) ([]WatchdogRow, error) {
	b := workloads.Var()
	p := proto.params(b)
	batch := &batchTable{}
	var jobs []sweep.Job
	for _, wd := range intervals {
		jobs = append(jobs, sweep.Job{
			Spec: sweep.Spec{
				Experiment: "ablation/watchdog",
				Kernel:     b.Name,
				Variant:    PreciseVariant(b, p).String(),
				Processor:  core.ProcClank.String(),
				Source:     string(energy.SourceWiFi),
				TraceSeed:  5,
				InputSeed:  1,
				Params:     specParams(p, "watchdog_cycles", fmt.Sprint(wd)),
			},
			Run: func() (any, error) { return runWatchdogPoint(batch, b, p, wd) },
		})
	}
	rows, err := runSweep[WatchdogRow](proto.runner(), jobs)
	if err != nil {
		return nil, fmt.Errorf("watchdog sweep: %w", err)
	}
	return rows, nil
}

func runWatchdogPoint(batch *batchTable, b *workloads.Benchmark, p workloads.Params, wd uint64) (WatchdogRow, error) {
	in := b.Inputs(p, 1)
	precise, err := PreciseVariant(b, p).Compile()
	if err != nil {
		return WatchdogRow{}, err
	}
	cfg := core.DefaultConfig()
	cfg.Clank.WatchdogCycles = wd
	sys := core.NewSystem(cfg, batch.trace(5))
	if err := sys.Load(precise); err != nil {
		return WatchdogRow{}, err
	}
	sys.Runner.MaxCycles = certifiedBudget(precise)
	res, err := sys.RunInput(in)
	row := WatchdogRow{WatchdogCycles: wd, PreciseCycles: res.TotalCycles(), Checkpoints: res.Checkpoints}
	switch err {
	case nil:
	case intermittent.ErrCycleBudget:
		row.Livelocked = true
	default:
		return WatchdogRow{}, err
	}
	return row, nil
}

// livelockBudget is the blind fallback bound for runs that cannot make
// forward progress, used only when a kernel's certificate carries no finite
// whole-run WCEC.
const livelockBudget = 50_000_000

// certifiedBudget derives the runaway guard from the kernel's
// forward-progress certificate: 64x the certified whole-run WCEC plus
// slack. The factor absorbs runtime overhead charges and outage replay
// (each recharge re-executes at most one region), while detecting a
// genuine livelock orders of magnitude sooner than the blind constant.
func certifiedBudget(c *compiler.Compiled) uint64 {
	if c != nil && c.Cert != nil && c.Cert.Progress != nil && c.Cert.Progress.TotalFinite {
		return 64*c.Cert.Progress.TotalWCEC + 65536
	}
	return livelockBudget
}

// PrintWatchdogSweep renders the sweep.
func PrintWatchdogSweep(w io.Writer, rows []WatchdogRow) {
	fmt.Fprintf(w, "Ablation: Clank watchdog interval (precise Var under harvested power)\n")
	fmt.Fprintf(w, "%12s %16s %12s\n", "watchdog", "wall cycles", "checkpoints")
	for _, r := range rows {
		if r.Livelocked {
			fmt.Fprintf(w, "%12d %16s %12d  (no forward progress: interval exceeds one charge)\n",
				r.WatchdogCycles, "LIVELOCK", r.Checkpoints)
			continue
		}
		fmt.Fprintf(w, "%12d %16d %12d\n", r.WatchdogCycles, r.PreciseCycles, r.Checkpoints)
	}
}

// CapacitorRow is one point of the storage-capacitor sweep.
type CapacitorRow struct {
	CapacitanceuF float64
	ActiveMs      float64 // active period per charge
	WNSpeedup     float64 // 4-bit WN vs precise on Clank
	WNNRMSE       float64
	Livelocked    bool // capacitor too small for the checkpoint interval
}

// CapacitorSweep varies the storage capacitor: bigger capacitors lengthen
// active periods, letting WN complete more subword passes (better quality,
// less speedup); tiny capacitors amplify the benefit of committing early.
func CapacitorSweep(proto Protocol, uFs []float64) ([]CapacitorRow, error) {
	b := workloads.Var()
	p := proto.params(b)
	batch := &batchTable{}
	var jobs []sweep.Job
	for _, uf := range uFs {
		jobs = append(jobs, sweep.Job{
			Spec: sweep.Spec{
				Experiment: "ablation/capacitor",
				Kernel:     b.Name,
				Variant:    WNVariant(b, p, 4).String(),
				Processor:  core.ProcClank.String(),
				Source:     string(energy.SourceWiFi),
				TraceSeed:  5,
				InputSeed:  1,
				Params:     specParams(p, "capacitance_uF", fmt.Sprint(uf)),
			},
			Run: func() (any, error) { return runCapacitorPoint(batch, b, p, uf) },
		})
	}
	rows, err := runSweep[CapacitorRow](proto.runner(), jobs)
	if err != nil {
		return nil, fmt.Errorf("capacitor sweep: %w", err)
	}
	return rows, nil
}

func runCapacitorPoint(batch *batchTable, b *workloads.Benchmark, p workloads.Params, uf float64) (CapacitorRow, error) {
	in := b.Inputs(p, 1)
	golden := b.Golden(p, in)
	precise, err := PreciseVariant(b, p).Compile()
	if err != nil {
		return CapacitorRow{}, err
	}
	wn, err := WNVariant(b, p, 4).Compile()
	if err != nil {
		return CapacitorRow{}, err
	}
	cfg := core.DefaultConfig()
	cfg.Device.CapacitanceF = uf * 1e-6
	run := func(c *compiler.Compiled) (uint64, []float64, error) {
		sys := core.NewSystem(cfg, batch.trace(5))
		if err := sys.Load(c); err != nil {
			return 0, nil, err
		}
		sys.Runner.MaxCycles = certifiedBudget(c)
		res, err := sys.RunInput(in)
		if err != nil {
			return 0, nil, err
		}
		out, err := sys.Output(b.Output)
		return res.TotalCycles(), out, err
	}
	row := CapacitorRow{
		CapacitanceuF: uf,
		ActiveMs:      1e3 * float64(cfg.Device.CyclesPerCharge()) / cfg.Device.ClockHz,
	}
	pc, _, err := run(precise)
	if err == nil {
		var wc uint64
		var wout []float64
		wc, wout, err = run(wn)
		if err == nil {
			row.WNSpeedup = float64(pc) / float64(wc)
			row.WNNRMSE = quality.NRMSE(wout, golden)
		}
	}
	if err == intermittent.ErrCycleBudget {
		row.Livelocked = true
	} else if err != nil {
		return CapacitorRow{}, err
	}
	return row, nil
}

// PrintCapacitorSweep renders the sweep.
func PrintCapacitorSweep(w io.Writer, rows []CapacitorRow) {
	fmt.Fprintf(w, "Ablation: storage capacitor (Var, 4-bit WN vs precise on Clank)\n")
	fmt.Fprintf(w, "%10s %12s %12s %12s\n", "uF", "active ms", "speedup", "NRMSE %")
	for _, r := range rows {
		if r.Livelocked {
			fmt.Fprintf(w, "%10.1f %12.3f %12s  (charge shorter than the checkpoint interval)\n",
				r.CapacitanceuF, r.ActiveMs, "LIVELOCK")
			continue
		}
		fmt.Fprintf(w, "%10.1f %12.3f %11.2fx %12.3f\n", r.CapacitanceuF, r.ActiveMs, r.WNSpeedup, r.WNNRMSE)
	}
}

// MemoEntriesRow is one point of the memo-capacity sweep.
type MemoEntriesRow struct {
	Entries int
	HitRate float64 // hits+zero-skips over all multiplies
	Speedup float64 // Conv2d 4-bit earliest output vs no table
}

// memoCell is the raw measurement of one memo-sweep job: cycles to the
// earliest output plus the table counters. Entries 0 is the no-table base.
type memoCell struct {
	Cycles                  uint64
	Hits, Misses, ZeroSkips uint64
}

func (c memoCell) SimulatedCycles() uint64 { return c.Cycles }

// MemoEntriesSweep varies the memo-table capacity on Conv2d's 4-bit build,
// reproducing the paper's footnote that entries beyond 16 give only modest
// gains at extra area. The no-table baseline and every capacity point are
// independent jobs; speedups are derived from the decoded cycle counts.
func MemoEntriesSweep(proto Protocol, entries []int) ([]MemoEntriesRow, error) {
	b := workloads.Conv2d()
	p := proto.params(b)
	sizes := append([]int{0}, entries...) // job 0 is the no-table baseline
	var jobs []sweep.Job
	for _, n := range sizes {
		jobs = append(jobs, sweep.Job{
			Spec: sweep.Spec{
				Experiment: "ablation/memo",
				Kernel:     b.Name,
				Variant:    WNVariant(b, p, 4).String(),
				InputSeed:  1,
				Params:     specParams(p, "memo_entries", itoa(n)),
			},
			Run: func() (any, error) { return runMemoPoint(b, p, n) },
		})
	}
	cells, err := runSweep[memoCell](proto.runner(), jobs)
	if err != nil {
		return nil, fmt.Errorf("memo sweep: %w", err)
	}
	base := cells[0]
	var rows []MemoEntriesRow
	for i, c := range cells[1:] {
		total := c.Hits + c.Misses + c.ZeroSkips
		rows = append(rows, MemoEntriesRow{
			Entries: entries[i],
			HitRate: float64(c.Hits+c.ZeroSkips) / float64(total),
			Speedup: float64(base.Cycles) / float64(c.Cycles),
		})
	}
	return rows, nil
}

// runMemoPoint measures Conv2d's earliest 4-bit output with an n-entry memo
// table (n == 0: no table).
func runMemoPoint(b *workloads.Benchmark, p workloads.Params, n int) (memoCell, error) {
	in := b.Inputs(p, 1)
	c, err := WNVariant(b, p, 4).Compile()
	if err != nil {
		return memoCell{}, err
	}
	var memo *cpu.MemoTable
	if n > 0 {
		memo = cpu.NewSizedMemoTable(n)
	}
	// The run stops right after the first SKM, where the earliest output is
	// committed.
	res, _, err := runContinuous(c, in, contOptions{memo: memo, stopAtSkim: true})
	if err != nil {
		return memoCell{}, err
	}
	cell := memoCell{Cycles: res.Cycles}
	if memo != nil {
		cell.Hits, cell.Misses, cell.ZeroSkips = memo.Hits, memo.Misses, memo.ZeroSkips
	}
	return cell, nil
}

// PrintMemoEntriesSweep renders the sweep.
func PrintMemoEntriesSweep(w io.Writer, rows []MemoEntriesRow) {
	fmt.Fprintf(w, "Ablation: memo table capacity (Conv2d 4-bit earliest output)\n")
	fmt.Fprintf(w, "%10s %12s %12s\n", "entries", "hit rate", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%10d %11.1f%% %11.2fx\n", r.Entries, 100*r.HitRate, r.Speedup)
	}
}

// ConsistencyRow compares forward-progress mechanisms on one benchmark.
type ConsistencyRow struct {
	Benchmark string
	Mechanism string
	// WallCycles to exact completion of the precise build under power.
	WallCycles  uint64
	Checkpoints uint64
	// WNSpeedup of the 4-bit anytime build against this same mechanism's
	// precise baseline.
	WNSpeedup float64
}

// SimulatedCycles reports the run length for sweep accounting.
func (r ConsistencyRow) SimulatedCycles() uint64 { return r.WallCycles }

// ConsistencySweep is an extension study comparing the volatile-processor
// consistency mechanisms: Clank's checkpoint-on-violation vs undo-log
// rollback. Clank pays checkpoints on every read-modify-write; the undo
// log pays per-first-touch logging plus rollback work after each outage.
func ConsistencySweep(proto Protocol) ([]ConsistencyRow, error) {
	batch := &batchTable{}
	var jobs []sweep.Job
	for _, b := range []*workloads.Benchmark{workloads.Var(), workloads.MatAdd()} {
		p := proto.params(b)
		for _, proc := range []core.Processor{core.ProcClank, core.ProcUndoLog} {
			jobs = append(jobs, sweep.Job{
				Spec: sweep.Spec{
					Experiment: "ablation/consistency",
					Kernel:     b.Name,
					Variant:    WNVariant(b, p, 4).String(),
					Processor:  proc.String(),
					Source:     string(energy.SourceWiFi),
					TraceSeed:  33,
					InputSeed:  1,
					Params:     specParams(p),
				},
				Run: func() (any, error) { return runConsistencyPoint(batch, b, p, proc) },
			})
		}
	}
	rows, err := runSweep[ConsistencyRow](proto.runner(), jobs)
	if err != nil {
		return nil, fmt.Errorf("consistency sweep: %w", err)
	}
	return rows, nil
}

func runConsistencyPoint(batch *batchTable, b *workloads.Benchmark, p workloads.Params, proc core.Processor) (ConsistencyRow, error) {
	in := b.Inputs(p, 1)
	precise, err := PreciseVariant(b, p).Compile()
	if err != nil {
		return ConsistencyRow{}, err
	}
	wn, err := WNVariant(b, p, 4).Compile()
	if err != nil {
		return ConsistencyRow{}, err
	}
	run := func(c *compiler.Compiled) (uint64, uint64, error) {
		sys := intermittentSystem(proc, batch.trace(33))
		if err := sys.Load(c); err != nil {
			return 0, 0, err
		}
		sys.Runner.MaxCycles = certifiedBudget(c)
		res, err := sys.RunInput(in)
		if err != nil {
			return 0, 0, err
		}
		return res.TotalCycles(), res.Checkpoints, nil
	}
	pc, cps, err := run(precise)
	if err != nil {
		return ConsistencyRow{}, err
	}
	wc, _, err := run(wn)
	if err != nil {
		return ConsistencyRow{}, err
	}
	return ConsistencyRow{
		Benchmark:   b.Name,
		Mechanism:   proc.String(),
		WallCycles:  pc,
		Checkpoints: cps,
		WNSpeedup:   float64(pc) / float64(wc),
	}, nil
}

// PrintConsistencySweep renders the mechanism comparison.
func PrintConsistencySweep(w io.Writer, rows []ConsistencyRow) {
	fmt.Fprintf(w, "Ablation: consistency mechanisms (precise wall time and 4-bit WN speedup)\n")
	fmt.Fprintf(w, "%-10s %-9s %14s %12s %10s\n", "Benchmark", "mech", "precise wall", "checkpoints", "WN speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-9s %14d %12d %9.2fx\n",
			r.Benchmark, r.Mechanism, r.WallCycles, r.Checkpoints, r.WNSpeedup)
	}
}
