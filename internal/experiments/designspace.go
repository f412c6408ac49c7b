package experiments

import (
	"fmt"
	"io"

	"whatsnext/internal/compiler"
	"whatsnext/internal/cpu"
	"whatsnext/internal/mem"
	"whatsnext/internal/quality"
	"whatsnext/internal/sweep"
	"whatsnext/internal/workloads"
)

// earliestCell is the raw measurement shared by the design-space studies:
// cycles to a stopping point (earliest output or completion) and the output
// error at that moment.
type earliestCell struct {
	Cycles uint64
	NRMSE  float64
}

func (c earliestCell) SimulatedCycles() uint64 { return c.Cycles }

// --- Figure 12: combining vectorization and pipelining (MatMul) ---

// Fig12Row compares SWP MatMul with and without vectorized loads at one
// subword size: the cycle count to the earliest available output.
type Fig12Row struct {
	Bits             int
	PlainCycles      uint64 // first output, scalar subword loads
	VectorLoadCycles uint64 // first output, packed subword-major loads
	EarlierBy        float64
	PlainNRMSE       float64
	VectorNRMSE      float64
}

// Figure12 measures how much earlier MatMul's first approximate output is
// available when the ASP input is stored subword-major so one load fetches
// several subwords (the paper reports 1.08x and 1.24x for 8- and 4-bit).
// The four (bits, loads) builds are independent sweep jobs.
func Figure12(proto Protocol) ([]Fig12Row, error) {
	b := workloads.MatMul()
	p := proto.params(b)
	var jobs []sweep.Job
	for _, bits := range []int{8, 4} {
		for _, vec := range []bool{false, true} {
			v := WNVariant(b, p, bits)
			v.VectorLoads = vec
			jobs = append(jobs, sweep.Job{
				Spec: sweep.Spec{
					Experiment: "fig12",
					Kernel:     b.Name,
					Variant:    v.String(),
					InputSeed:  1,
					Params:     specParams(p),
				},
				Run: func() (any, error) { return runEarliestOutput(b, p, v) },
			})
		}
	}
	cells, err := runSweep[earliestCell](proto.runner(), jobs)
	if err != nil {
		return nil, fmt.Errorf("figure 12: %w", err)
	}
	var rows []Fig12Row
	for i, bits := range []int{8, 4} {
		plain, vload := cells[2*i], cells[2*i+1]
		rows = append(rows, Fig12Row{
			Bits:             bits,
			PlainCycles:      plain.Cycles,
			VectorLoadCycles: vload.Cycles,
			EarlierBy:        float64(plain.Cycles) / float64(vload.Cycles),
			PlainNRMSE:       plain.NRMSE,
			VectorNRMSE:      vload.NRMSE,
		})
	}
	return rows, nil
}

// runEarliestOutput runs a variant under continuous power to its first skim
// point and scores the output available there.
func runEarliestOutput(b *workloads.Benchmark, p workloads.Params, v Variant) (earliestCell, error) {
	in := b.Inputs(p, 1)
	golden := b.Golden(p, in)
	c, err := v.Compile()
	if err != nil {
		return earliestCell{}, err
	}
	res, m, err := runContinuous(c, in, contOptions{stopAtSkim: true})
	if err != nil {
		return earliestCell{}, err
	}
	var out []float64
	nr, err := outputNRMSE(&out, c, m, b.Output, golden)
	if err != nil {
		return earliestCell{}, err
	}
	return earliestCell{Cycles: res.Cycles, NRMSE: nr}, nil
}

// PrintFigure12 renders the comparison.
func PrintFigure12(w io.Writer, rows []Fig12Row) {
	fmt.Fprintf(w, "Figure 12: MatMul SWP with/without subword-vectorized loads (earliest output)\n")
	fmt.Fprintf(w, "%4s %16s %16s %10s %12s %12s\n", "Bits", "plain cycles", "vload cycles", "earlier", "plain err%", "vload err%")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d %16d %16d %9.2fx %12.3f %12.3f\n",
			r.Bits, r.PlainCycles, r.VectorLoadCycles, r.EarlierBy, r.PlainNRMSE, r.VectorNRMSE)
	}
}

// --- Figure 13: memoization and zero skipping (Conv2d) ---

// Fig13Row reports earliest-output speedup with and without the 16-entry
// memo table + zero skipping, normalized to the precise no-table baseline.
type Fig13Row struct {
	Config    string // "precise", "8-bit", "4-bit"
	NoTable   float64
	WithTable float64
	HitRate   float64 // memo hit + zero-skip rate among multiplies
}

// fig13Cell is one (config, memo) measurement.
type fig13Cell struct {
	Cycles                  uint64
	Hits, Misses, ZeroSkips uint64
}

func (c fig13Cell) SimulatedCycles() uint64 { return c.Cycles }

// Figure13 reproduces the memoization case study: speedups of Conv2d when
// the earliest available output is taken, normalized to the precise case
// without memoization (paper: precise 1.11x; 8-bit 1.31->1.42x; 4-bit
// 1.7->1.97x). The six (config, table) runs are independent sweep jobs;
// speedups are derived from the decoded cycle counts.
func Figure13(proto Protocol) ([]Fig13Row, error) {
	b := workloads.Conv2d()
	p := proto.params(b)

	type cfg struct {
		name string
		mode compiler.Mode
		bits int
	}
	cfgs := []cfg{
		{"precise", compiler.ModePrecise, 8},
		{"8-bit", compiler.ModeSWP, 8},
		{"4-bit", compiler.ModeSWP, 4},
	}
	var jobs []sweep.Job
	for _, cf := range cfgs {
		for _, memo := range []bool{false, true} {
			v := Variant{Bench: b, Params: p, Mode: cf.mode, Bits: cf.bits, Provisioned: true}
			jobs = append(jobs, sweep.Job{
				Spec: sweep.Spec{
					Experiment: "fig13",
					Kernel:     b.Name,
					Variant:    v.String(),
					InputSeed:  1,
					Params:     specParams(p, "memo", fmt.Sprint(memo)),
				},
				Run: func() (any, error) { return runFig13Cell(b, p, v, memo) },
			})
		}
	}
	cells, err := runSweep[fig13Cell](proto.runner(), jobs)
	if err != nil {
		return nil, fmt.Errorf("figure 13: %w", err)
	}
	baseline := float64(cells[0].Cycles) // precise, no table
	var rows []Fig13Row
	for i, cf := range cfgs {
		plain, memo := cells[2*i], cells[2*i+1]
		row := Fig13Row{
			Config:    cf.name,
			NoTable:   baseline / float64(plain.Cycles),
			WithTable: baseline / float64(memo.Cycles),
		}
		if total := memo.Hits + memo.Misses + memo.ZeroSkips; total > 0 {
			row.HitRate = float64(memo.Hits+memo.ZeroSkips) / float64(total)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runFig13Cell measures Conv2d to its earliest output (or completion for
// the precise build) with or without the memo table.
func runFig13Cell(b *workloads.Benchmark, p workloads.Params, v Variant, memo bool) (fig13Cell, error) {
	in := b.Inputs(p, 1)
	c, err := v.Compile()
	if err != nil {
		return fig13Cell{}, err
	}
	var table *cpu.MemoTable
	if memo {
		table = cpu.NewMemoTable()
	}
	// The anytime build stops right after its first SKM, where its earliest
	// output is committed.
	res, _, err := runContinuous(c, in, contOptions{memo: table, stopAtSkim: v.Mode == compiler.ModeSWP})
	if err != nil {
		return fig13Cell{}, err
	}
	cell := fig13Cell{Cycles: res.Cycles}
	if memo {
		cell.Hits, cell.Misses, cell.ZeroSkips = table.Hits, table.Misses, table.ZeroSkips
	}
	return cell, nil
}

// PrintFigure13 renders the memoization study.
func PrintFigure13(w io.Writer, rows []Fig13Row) {
	fmt.Fprintf(w, "Figure 13: Conv2d earliest-output speedup with memoization + zero skipping\n")
	fmt.Fprintf(w, "%-8s %10s %10s %10s\n", "Config", "no table", "16-entry", "hit rate")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %9.2fx %9.2fx %9.1f%%\n", r.Config, r.NoTable, r.WithTable, 100*r.HitRate)
	}
}

// --- Figure 14: provisioned vs unprovisioned vectorized addition ---

// Figure14 reproduces the provisioning study on MatAdd with 8-bit subwords:
// the unprovisioned build drops inter-lane carries and its error plateaus,
// while the provisioned build reaches the precise result. The two curves
// are independent sweep jobs (each computes its own precise baseline).
func Figure14(proto Protocol, samples int) (provisioned, unprovisioned QualityCurve, err error) {
	b := workloads.MatAdd()
	p := proto.params(b)
	var jobs []sweep.Job
	for _, prov := range []bool{true, false} {
		v := WNVariant(b, p, 8)
		v.Provisioned = prov
		jobs = append(jobs, sweep.Job{
			Spec: sweep.Spec{
				Experiment: "fig14",
				Kernel:     b.Name,
				Variant:    fmt.Sprintf("%s/prov=%t", v.String(), prov),
				InputSeed:  1,
				Params:     specParams(p, "samples", itoa(samples)),
			},
			Run: func() (any, error) { return runFig14Curve(b, p, v, samples) },
		})
	}
	curves, err := runSweep[QualityCurve](proto.runner(), jobs)
	if err != nil {
		return QualityCurve{}, QualityCurve{}, fmt.Errorf("figure 14: %w", err)
	}
	return curves[0], curves[1], nil
}

func runFig14Curve(b *workloads.Benchmark, p workloads.Params, v Variant, samples int) (QualityCurve, error) {
	in := b.Inputs(p, 1)
	golden := b.Golden(p, in)
	base, err := preciseCycles(b, p, 1)
	if err != nil {
		return QualityCurve{}, err
	}
	c, err := v.Compile()
	if err != nil {
		return QualityCurve{}, err
	}
	return traceQuality(c, b, in, golden, base, samples)
}

// PrintFigure14 renders the two curves.
func PrintFigure14(w io.Writer, prov, unprov QualityCurve) {
	fmt.Fprintf(w, "Figure 14: MatAdd 8-bit SWV, provisioned vs unprovisioned addition\n")
	fmt.Fprintf(w, "provisioned final NRMSE:   %.6f%% at %.2fx runtime\n",
		prov.Points[len(prov.Points)-1].NRMSE, prov.FinalOverhead())
	fmt.Fprintf(w, "unprovisioned final NRMSE: %.6f%% at %.2fx runtime (carry loss floor)\n",
		unprov.Points[len(unprov.Points)-1].NRMSE, unprov.FinalOverhead())
	for _, c := range []struct {
		name  string
		curve QualityCurve
	}{{"provisioned", prov}, {"unprovisioned", unprov}} {
		fmt.Fprintf(w, "# %s\nnorm_runtime,nrmse_pct\n", c.name)
		for _, pt := range c.curve.Points {
			fmt.Fprintf(w, "%.4f,%.6g\n", pt.NormRuntime, pt.NRMSE)
		}
	}
}

// traceQuality collects a quality curve for an already compiled kernel.
func traceQuality(c *compiler.Compiled, b *workloads.Benchmark, in map[string][]int64, golden []float64, base uint64, samples int) (QualityCurve, error) {
	if samples <= 0 {
		samples = 120
	}
	curve := QualityCurve{Benchmark: b.Name, Bits: 0, BaselineCycles: base}
	period := 3 * base / uint64(samples)
	if period == 0 {
		period = 1
	}
	var sampleErr error
	var out []float64 // every sample of the curve decodes into one buffer
	res, m, err := runContinuous(c, in, contOptions{
		sampleEvery: period,
		sample: func(cycles uint64, mm *mem.Memory) {
			nr, err := outputNRMSE(&out, c, mm, b.Output, golden)
			if err != nil {
				sampleErr = err
				return
			}
			curve.Points = append(curve.Points, QualityPoint{NormRuntime: float64(cycles) / float64(base), NRMSE: nr})
		},
	})
	if err != nil {
		return QualityCurve{}, err
	}
	if sampleErr != nil {
		return QualityCurve{}, sampleErr
	}
	curve.FinalCycles = res.Cycles
	final, err := outputNRMSE(&out, c, m, b.Output, golden)
	if err != nil {
		return QualityCurve{}, err
	}
	curve.Points = append(curve.Points, QualityPoint{NormRuntime: float64(res.Cycles) / float64(base), NRMSE: final})
	return curve, nil
}

// --- Figure 15: pipelining with small subwords (Conv2d) ---

// Fig15Row is the earliest-output speedup and error for a small subword.
type Fig15Row struct {
	Bits    int
	Speedup float64
	NRMSE   float64
	Cycles  uint64
}

// Figure15 sweeps 1-, 2-, 3- and 4-bit subword pipelining on Conv2d,
// taking the earliest available output (paper: error rises and speedup
// grows as subwords shrink; 1-bit reaches 2.26x). The precise baseline and
// the four subword builds are five independent sweep jobs.
func Figure15(proto Protocol) ([]Fig15Row, error) {
	b := workloads.Conv2d()
	p := proto.params(b)
	allBits := []int{1, 2, 3, 4}
	jobs := []sweep.Job{{
		Spec: sweep.Spec{
			Experiment: "fig15",
			Kernel:     b.Name,
			Variant:    PreciseVariant(b, p).String(),
			InputSeed:  1,
			Params:     specParams(p),
		},
		Run: func() (any, error) {
			cycles, err := preciseCycles(b, p, 1)
			return earliestCell{Cycles: cycles}, err
		},
	}}
	for _, bits := range allBits {
		v := WNVariant(b, p, bits)
		jobs = append(jobs, sweep.Job{
			Spec: sweep.Spec{
				Experiment: "fig15",
				Kernel:     b.Name,
				Variant:    v.String(),
				InputSeed:  1,
				Params:     specParams(p),
			},
			Run: func() (any, error) { return runEarliestOutput(b, p, v) },
		})
	}
	cells, err := runSweep[earliestCell](proto.runner(), jobs)
	if err != nil {
		return nil, fmt.Errorf("figure 15: %w", err)
	}
	base := cells[0].Cycles
	var rows []Fig15Row
	for i, bits := range allBits {
		c := cells[i+1]
		rows = append(rows, Fig15Row{
			Bits:    bits,
			Speedup: float64(base) / float64(c.Cycles),
			NRMSE:   c.NRMSE,
			Cycles:  c.Cycles,
		})
	}
	return rows, nil
}

// PrintFigure15 renders the sweep.
func PrintFigure15(w io.Writer, rows []Fig15Row) {
	fmt.Fprintf(w, "Figure 15: Conv2d earliest output with small subwords\n")
	fmt.Fprintf(w, "%5s %10s %10s %14s\n", "Bits", "Speedup", "NRMSE %", "Cycles")
	for _, r := range rows {
		fmt.Fprintf(w, "%5d %9.2fx %10.3f %14d\n", r.Bits, r.Speedup, r.NRMSE, r.Cycles)
	}
}

// --- Figure 17: WN vs input sampling on Var ---

// Fig17Point is one data set's variance under the three schemes.
type Fig17Point struct {
	DataSet int
	Precise float64 // exact variance of the data set
	WN      float64 // first-pass anytime estimate (all sets processed)
	Sampled float64 // precise value, but only every other set is processed
	Missed  bool    // the sampling scheme dropped this set
}

// fig17Cell is one data set's pair of exact and first-pass values.
type fig17Cell struct {
	Precise float64
	WN      float64
}

// Figure17 reproduces the Var case study: 24 sensor data sets arrive in a
// stream; the precise implementation at 4-bit-pass energy cost can only
// keep up with every other set (sampling), while WN produces a first-pass
// estimate for every set (paper: 1.53% average measured-value error, peaks
// and troughs all captured). Each data set is one sweep job.
func Figure17(proto Protocol) ([]Fig17Point, float64, error) {
	b := workloads.Var()
	const sets = 24
	p := workloads.Params{Windows: 1, WindowSize: 64}
	// The paper's framing: Var's first 4-bit estimate is ready in roughly
	// half the precise time, so WN can process about two samples for every
	// sample the precise implementation completes at the same energy. Each
	// set is scored at its first skim point (earliest available output).
	var jobs []sweep.Job
	for d := 0; d < sets; d++ {
		inputSeed := int64(100 + d)
		jobs = append(jobs, sweep.Job{
			Spec: sweep.Spec{
				Experiment: "fig17",
				Kernel:     b.Name,
				Variant:    WNVariant(b, p, 4).String(),
				InputSeed:  inputSeed,
				Params:     specParams(p),
			},
			Run: func() (any, error) { return runFig17Set(b, p, inputSeed) },
		})
	}
	cells, err := runSweep[fig17Cell](proto.runner(), jobs)
	if err != nil {
		return nil, 0, fmt.Errorf("figure 17: %w", err)
	}
	var points []Fig17Point
	var relErrs []float64
	for d, c := range cells {
		points = append(points, Fig17Point{
			DataSet: d,
			Precise: c.Precise,
			WN:      c.WN,
			Sampled: c.Precise,
			Missed:  d%2 == 1, // precise can only process every other set
		})
		if c.Precise != 0 {
			relErrs = append(relErrs, 100*abs(c.WN-c.Precise)/c.Precise)
		}
	}
	return points, quality.Mean(relErrs), nil
}

// runFig17Set computes one data set's exact variance and its first-pass
// 4-bit estimate.
func runFig17Set(b *workloads.Benchmark, p workloads.Params, inputSeed int64) (fig17Cell, error) {
	c, err := WNVariant(b, p, 4).Compile()
	if err != nil {
		return fig17Cell{}, err
	}
	in := b.Inputs(p, inputSeed)
	golden := b.Golden(p, in)
	_, m, err := runContinuous(c, in, contOptions{stopAtSkim: true})
	if err != nil {
		return fig17Cell{}, err
	}
	got, err := c.Layout.AppendOutputValues(nil, m, b.Output)
	if err != nil {
		return fig17Cell{}, err
	}
	return fig17Cell{Precise: golden[0], WN: got[0]}, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// PrintFigure17 renders the stream comparison.
func PrintFigure17(w io.Writer, points []Fig17Point, avgErr float64) {
	fmt.Fprintf(w, "Figure 17: Var — WN vs input sampling over %d data sets (avg WN error %.2f%%)\n", len(points), avgErr)
	fmt.Fprintf(w, "%4s %12s %12s %12s\n", "set", "precise", "WN(4-bit)", "sampled")
	for _, p := range points {
		sampled := fmt.Sprintf("%12.0f", p.Sampled)
		if p.Missed {
			sampled = fmt.Sprintf("%12s", "(dropped)")
		}
		fmt.Fprintf(w, "%4d %12.0f %12.0f %s\n", p.DataSet, p.Precise, p.WN, sampled)
	}
}
