package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"whatsnext/internal/mem"
	"whatsnext/internal/sweep"
	"whatsnext/internal/workloads"
)

// QualityPoint is one sample on a runtime-quality curve.
type QualityPoint struct {
	NormRuntime float64 // runtime / precise-baseline runtime
	NRMSE       float64 // percent error if halted at this moment
}

// QualityCurve is one Figure 9 series: a benchmark's output error over
// normalized runtime for a subword size.
type QualityCurve struct {
	Benchmark      string
	Bits           int
	BaselineCycles uint64
	FinalCycles    uint64
	Points         []QualityPoint
}

// FinalOverhead is the WN runtime to the precise result, relative to the
// baseline (the >1 tail of each Figure 9 curve).
func (q QualityCurve) FinalOverhead() float64 {
	return float64(q.FinalCycles) / float64(q.BaselineCycles)
}

// SimulatedCycles reports the curve's run length for sweep accounting.
func (q QualityCurve) SimulatedCycles() uint64 {
	return q.BaselineCycles + q.FinalCycles
}

// RuntimeQuality reproduces one series of Figure 9: the benchmark's WN
// variant runs to completion under continuous power while the harness
// periodically scores the output in non-volatile memory against the golden
// result — the error the application would ship if a power outage forced a
// skim at that moment.
func RuntimeQuality(b *workloads.Benchmark, p workloads.Params, bits int, samples int) (QualityCurve, error) {
	seed := int64(1)
	in := b.Inputs(p, seed)
	golden := b.Golden(p, in)

	base, err := preciseCycles(b, p, seed)
	if err != nil {
		return QualityCurve{}, err
	}
	c, err := WNVariant(b, p, bits).Compile()
	if err != nil {
		return QualityCurve{}, err
	}
	curve := QualityCurve{Benchmark: b.Name, Bits: bits, BaselineCycles: base}
	if samples <= 0 {
		samples = 120
	}
	// Sample over an expected span of ~3x the baseline.
	period := 3 * base / uint64(samples)
	if period == 0 {
		period = 1
	}
	var sampleErr error
	var out []float64 // every sample of the curve decodes into one buffer
	res, m, err := runContinuous(c, in, contOptions{
		sampleEvery: period,
		sample: func(cycles uint64, mm *mem.Memory) {
			// The memory is live during the run; score a snapshot.
			nr, err := outputNRMSE(&out, c, mm, b.Output, golden)
			if err != nil {
				sampleErr = err
				return
			}
			curve.Points = append(curve.Points, QualityPoint{
				NormRuntime: float64(cycles) / float64(base),
				NRMSE:       nr,
			})
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
	curve.Points = append(curve.Points, QualityPoint{
		NormRuntime: float64(res.Cycles) / float64(base),
		NRMSE:       final,
	})
	return curve, nil
}

// Figure9 runs the runtime-quality curves for all six benchmarks at 4- and
// 8-bit subwords. Each curve is one sweep job (a full continuous run with
// periodic output scoring), so the twelve series collect concurrently.
func Figure9(proto Protocol, samples int) ([]QualityCurve, error) {
	var jobs []sweep.Job
	for _, b := range workloads.All() {
		for _, bits := range []int{4, 8} {
			p := proto.params(b)
			jobs = append(jobs, sweep.Job{
				Spec: sweep.Spec{
					Experiment: "fig9",
					Kernel:     b.Name,
					Variant:    WNVariant(b, p, bits).String(),
					InputSeed:  1,
					Params:     specParams(p, "samples", itoa(samples)),
				},
				Run: func() (any, error) { return RuntimeQuality(b, p, bits, samples) },
			})
		}
	}
	curves, err := runSweep[QualityCurve](proto.runner(), jobs)
	if err != nil {
		return nil, fmt.Errorf("figure 9: %w", err)
	}
	return curves, nil
}

// PrintFigure9 renders the curves as CSV-ish series blocks.
func PrintFigure9(w io.Writer, curves []QualityCurve) {
	for _, c := range curves {
		fmt.Fprintf(w, "# Figure 9: %s, %d-bit (baseline %d cycles, final %.2fx)\n",
			c.Benchmark, c.Bits, c.BaselineCycles, c.FinalOverhead())
		fmt.Fprintf(w, "norm_runtime,nrmse_pct\n")
		for _, p := range c.Points {
			fmt.Fprintf(w, "%.4f,%.6g\n", p.NormRuntime, p.NRMSE)
		}
		fmt.Fprintln(w)
	}
}

// WriteFigure9CSV writes each curve as a plot-ready CSV in outDir and
// returns the file paths.
func WriteFigure9CSV(outDir string, curves []QualityCurve) ([]string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for _, c := range curves {
		path := filepath.Join(outDir, fmt.Sprintf("fig9_%s_%dbit.csv", c.Benchmark, c.Bits))
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(f, "norm_runtime,nrmse_pct\n")
		for _, p := range c.Points {
			fmt.Fprintf(f, "%.6f,%.8g\n", p.NormRuntime, p.NRMSE)
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}
