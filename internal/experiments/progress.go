package experiments

import (
	"fmt"
	"io"

	"whatsnext/internal/compiler"
	"whatsnext/internal/energy"
	"whatsnext/internal/faultinject"
	"whatsnext/internal/nn"
	"whatsnext/internal/sweep"
	"whatsnext/internal/workloads"
)

// ProgressRow is one kernel variant of the forward-progress study: the
// certified static bounds, the measured dynamic worst commit gap, and the
// device sizing the certificate implies.
type ProgressRow struct {
	Variant string
	// StaticRegionWCEC is the certified worst-case cycle count between
	// consecutive commit boundaries; StaticTotalWCEC bounds the whole run.
	StaticRegionWCEC uint64
	StaticTotalWCEC  uint64
	// DynamicMaxGap is the worst inter-commit gap measured in an
	// uninterrupted golden run; GoldenCycles is that run's total. The gap
	// exceeding the static bound would be an analyzer soundness bug, so
	// ProgressStudy fails rather than reporting it.
	DynamicMaxGap uint64
	GoldenCycles  uint64
	// MinCapacitorUF is the smallest storage capacitor (microfarads) whose
	// single VOn→VOff discharge covers the worst region — the provisioning
	// at which the certificate guarantees livelock-freedom.
	MinCapacitorUF float64
	// Budget is the certified runaway guard the ablations use in place of
	// the old blind 50M-cycle constant.
	Budget uint64
}

// ProgressStudy certifies and measures every Table I kernel (precise and
// anytime builds) plus the progress-embedded NN baselines: the static
// per-region WCEC from the verification certificate against the dynamic
// worst inter-commit gap of a golden run, and the minimum capacitor that
// makes the certified worst region survivable on one charge. Each variant
// is one sweep cell.
func ProgressStudy(proto Protocol) ([]ProgressRow, error) {
	var variants []Variant
	for _, b := range workloads.All() {
		p := proto.params(b)
		variants = append(variants, PreciseVariant(b, p), WNVariant(b, p, 8))
	}
	for _, b := range nn.All() {
		variants = append(variants, NNVariant(b, proto.params(b), 0))
	}
	jobs := make([]sweep.Job, 0, len(variants))
	for _, v := range variants {
		jobs = append(jobs, sweep.Job{
			Spec: progressSpec(v),
			Run:  func() (any, error) { return runProgressCell(v) },
		})
	}
	rows, err := runSweep[ProgressRow](proto.runner(), jobs)
	if err != nil {
		return nil, fmt.Errorf("progress study: %w", err)
	}
	return rows, nil
}

func progressSpec(v Variant) sweep.Spec {
	return sweep.Spec{
		Experiment: "progress",
		Kernel:     v.Bench.Name,
		Variant:    v.String(),
		InputSeed:  1,
		Params:     specParams(v.Params),
	}
}

// runProgressCell certifies one variant and measures its golden run.
func runProgressCell(v Variant) (ProgressRow, error) {
	c, err := v.Compile()
	if err != nil {
		return ProgressRow{}, err
	}
	pr := c.Cert.Progress
	if pr == nil || !pr.RegionsFinite || !pr.TotalFinite {
		return ProgressRow{}, fmt.Errorf("progress: %s: certificate carries no finite WCEC", v)
	}
	t := faultinject.FromCompiled(v.String(), c, v.Bench.Inputs(v.Params, 1))
	gap, total, err := faultinject.GoldenProgress(t, faultinject.Config{})
	if err != nil {
		return ProgressRow{}, fmt.Errorf("progress: %s: %w", v, err)
	}
	return progressRow(v, c, gap, total)
}

// progressRow checks a measured golden run against the variant's
// certificate and derives the row. A dynamic gap above the certified bound
// would be an analyzer soundness bug, so it is an error, not a row.
func progressRow(v Variant, c *compiler.Compiled, gap, total uint64) (ProgressRow, error) {
	pr := c.Cert.Progress
	if gap > pr.MaxRegionWCEC {
		return ProgressRow{}, fmt.Errorf("progress: %s: dynamic gap %d exceeds certified bound %d",
			v, gap, pr.MaxRegionWCEC)
	}
	dev := energy.DefaultDeviceConfig()
	window := dev.VOn*dev.VOn - dev.VOff*dev.VOff
	return ProgressRow{
		Variant:          v.String(),
		StaticRegionWCEC: pr.MaxRegionWCEC,
		StaticTotalWCEC:  pr.TotalWCEC,
		DynamicMaxGap:    gap,
		GoldenCycles:     total,
		MinCapacitorUF:   1e6 * 2 * float64(pr.MaxRegionWCEC) * dev.EnergyPerCycle / window,
		Budget:           certifiedBudget(c),
	}, nil
}

// PrintProgress renders the study.
func PrintProgress(w io.Writer, rows []ProgressRow) {
	fmt.Fprintf(w, "Forward-progress certification: static per-region WCEC vs measured worst commit gap\n")
	fmt.Fprintf(w, "%-24s %14s %14s %10s %10s %14s\n",
		"variant", "static region", "dynamic gap", "tight", "min cap", "total WCEC")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %14d %14d %9.1f%% %8.2fuF %14d\n",
			r.Variant, r.StaticRegionWCEC, r.DynamicMaxGap,
			100*float64(r.DynamicMaxGap)/float64(r.StaticRegionWCEC),
			r.MinCapacitorUF, r.StaticTotalWCEC)
	}
}
