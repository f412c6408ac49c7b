package experiments

import (
	"fmt"
	"io"

	"whatsnext/internal/compiler"
	"whatsnext/internal/nn"
	"whatsnext/internal/quality"
	"whatsnext/internal/sweep"
	"whatsnext/internal/workloads"
)

// NNRow is one (layer kernel, build) row of the NN accuracy-vs-energy
// study: the continuous-power runtime of a progress-embedded build against
// its classification quality relative to the exact float golden model.
type NNRow struct {
	Benchmark string
	Variant   string
	Bits      int    // 0 = precise baseline
	Cycles    uint64 // median continuous-power runtime (the energy proxy)
	NRMSE     float64
	Top1      float64 // argmax agreement with the golden model, percent
	TileMatch float64 // bit-exact output tiles, percent
	Samples   int
}

// nnCell is one (build, input seed) measurement.
type nnCell struct {
	Cycles    uint64
	NRMSE     float64
	Top1      float64
	TileMatch float64
}

func (c nnCell) SimulatedCycles() uint64 { return c.Cycles }

// nnBits enumerates the study's builds per kernel: the precise baseline
// (0) plus single-pass truncated anytime builds at three subword widths —
// each cheaper and less accurate than the last, which is the study's
// energy-accuracy axis. All builds embed progress.
func nnBits(b *workloads.Benchmark) []int {
	if b.Mode == compiler.ModePrecise {
		return []int{0} // max pooling does not decompose over subwords
	}
	return []int{0, 8, 4, 2}
}

// NNVariant returns the progress-embedded build of an NN kernel at a
// subword width (0 selects the precise baseline). Anytime builds retain
// only the most significant pass: the compile-time form of skimming, and
// the knob that trades accuracy for energy.
func NNVariant(b *workloads.Benchmark, p workloads.Params, bits int) Variant {
	if bits == 0 {
		return Variant{Bench: b, Params: p, Mode: compiler.ModePrecise, Bits: 8, ProgressEmbed: true}
	}
	return Variant{Bench: b, Params: p, Mode: b.Mode, Bits: bits, Provisioned: true,
		ProgressEmbed: true, MaxPasses: 1}
}

// nnMetricShape returns the classification-group and commit-tile sizes of
// a kernel's output: FC logits group by sample, the conv feature map is
// one group committed a row at a time, and pooling commits element-wise.
func nnMetricShape(b *workloads.Benchmark, p workloads.Params) (classes, tile int) {
	switch b.Name {
	case "NNFC":
		return p.N, p.N
	case "NNConv":
		return p.ImgW * p.ImgH, p.ImgW
	default:
		tiles := p.ImgW * p.ImgH / nn.PoolWindow
		return tiles, 1
	}
}

// NNStudy sweeps the NN layer kernels across subword widths under
// continuous power, reporting runtime against accuracy. Every cell is an
// independent job routed through the spec resolver, so the study runs
// identically on the serial engine or a parallel one.
func NNStudy(proto Protocol) ([]NNRow, error) {
	type group struct {
		b    *workloads.Benchmark
		bits int
		n    int
	}
	var jobs []sweep.Job
	var groups []group
	for _, b := range nn.All() {
		p := proto.params(b)
		for _, bits := range nnBits(b) {
			gj, err := nnJobs(b, p, bits, proto)
			if err != nil {
				return nil, err
			}
			groups = append(groups, group{b, bits, len(gj)})
			jobs = append(jobs, gj...)
		}
	}
	cells, err := runSweep[nnCell](proto.runner(), jobs)
	if err != nil {
		return nil, fmt.Errorf("nn study: %w", err)
	}
	var rows []NNRow
	off := 0
	for _, g := range groups {
		rows = append(rows, nnRow(g.b, proto.params(g.b), g.bits, cells[off:off+g.n]))
		off += g.n
	}
	return rows, nil
}

// nnSpec names one (build, input seed) cell for the resolver registry.
func nnSpec(b *workloads.Benchmark, p workloads.Params, bits int, inputSeed int64) sweep.Spec {
	return sweep.Spec{
		Experiment: "nn",
		Kernel:     b.Name,
		Variant:    NNVariant(b, p, bits).String(),
		InputSeed:  inputSeed,
		Params:     specParams(p, "bits", itoa(bits)),
	}
}

// nnJobs enumerates one row's cells through ResolveSpec, one per input
// seed (the study runs under continuous power, so harvest traces do not
// apply).
func nnJobs(b *workloads.Benchmark, p workloads.Params, bits int, proto Protocol) ([]sweep.Job, error) {
	var jobs []sweep.Job
	for inv := 0; inv < proto.Invocations; inv++ {
		j, err := ResolveSpec(nnSpec(b, p, bits, int64(1+inv)))
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// runNNCell measures one build on one input: runtime to completion under
// continuous power, and output quality against the golden model.
func runNNCell(b *workloads.Benchmark, p workloads.Params, bits int, inputSeed int64) (nnCell, error) {
	c, err := NNVariant(b, p, bits).Compile()
	if err != nil {
		return nnCell{}, err
	}
	in := b.Inputs(p, inputSeed)
	golden := b.Golden(p, in)
	res, m, err := runContinuous(c, in, contOptions{})
	if err != nil {
		return nnCell{}, err
	}
	got, err := c.Layout.OutputValues(m, b.Output)
	if err != nil {
		return nnCell{}, err
	}
	classes, tile := nnMetricShape(b, p)
	return nnCell{
		Cycles:    res.Cycles,
		NRMSE:     quality.NRMSE(got, golden),
		Top1:      quality.Top1Agree(got, golden, classes),
		TileMatch: quality.TileExactMatch(got, golden, tile),
	}, nil
}

// nnRow aggregates a build's cells (medians, like the paper's protocol).
func nnRow(b *workloads.Benchmark, p workloads.Params, bits int, cells []nnCell) NNRow {
	var cyc, er, top1, tm []float64
	for _, c := range cells {
		cyc = append(cyc, float64(c.Cycles))
		er = append(er, c.NRMSE)
		top1 = append(top1, c.Top1)
		tm = append(tm, c.TileMatch)
	}
	return NNRow{
		Benchmark: b.Name,
		Variant:   NNVariant(b, p, bits).String(),
		Bits:      bits,
		Cycles:    uint64(quality.Median(cyc)),
		NRMSE:     quality.Median(er),
		Top1:      quality.Median(top1),
		TileMatch: quality.Median(tm),
		Samples:   len(cells),
	}
}

// resolveNN rebuilds an NN cell from its spec (the "nn" registry entry).
func resolveNN(s sweep.Spec, _ *preciseTable) (func() (any, error), error) {
	b, err := workloads.ByName(s.Kernel)
	if err != nil {
		return nil, err
	}
	p, err := specWorkload(s)
	if err != nil {
		return nil, err
	}
	bits, err := specInt(s, "bits")
	if err != nil {
		return nil, err
	}
	if bits < 0 || bits > 8 {
		return nil, fmt.Errorf("bits %d out of range [0,8]", bits)
	}
	if bits != 0 && b.Mode == compiler.ModePrecise {
		return nil, fmt.Errorf("kernel %s lowers precisely only (bits must be 0)", b.Name)
	}
	if err := checkVariant(s, NNVariant(b, p, bits).String()); err != nil {
		return nil, err
	}
	inputSeed := s.InputSeed
	return func() (any, error) { return runNNCell(b, p, bits, inputSeed) }, nil
}

// PrintNN renders the accuracy-vs-energy table.
func PrintNN(w io.Writer, rows []NNRow) {
	fmt.Fprintf(w, "NN inference: accuracy vs energy across subword widths (progress-embedded builds)\n")
	fmt.Fprintf(w, "%-10s %-26s %12s %9s %8s %10s %8s\n",
		"kernel", "variant", "cycles", "NRMSE %", "top-1 %", "tile-ex %", "samples")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-26s %12d %9.3f %8.1f %10.1f %8d\n",
			r.Benchmark, r.Variant, r.Cycles, r.NRMSE, r.Top1, r.TileMatch, r.Samples)
	}
}
