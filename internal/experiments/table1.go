package experiments

import (
	"fmt"
	"io"

	"whatsnext/internal/compiler"
	"whatsnext/internal/energy"
	"whatsnext/internal/sweep"
	"whatsnext/internal/workloads"
)

// Table1Row characterizes one benchmark like Table I of the paper: the
// fraction of dynamic instructions amenable to WN and the full-precision
// runtime at 24 MHz.
type Table1Row struct {
	Benchmark   string
	Area        string
	Technique   string // SWP or SWV
	AmenablePct float64
	Cycles      uint64
	RuntimeMs   float64
}

// Table1 measures every benchmark's precise build through the sweep engine,
// one job per benchmark. Amenable instructions are those the compiler marked
// as targets for subword pipelining or vectorization.
func Table1(proto Protocol) ([]Table1Row, error) {
	var jobs []sweep.Job
	for _, b := range workloads.All() {
		p := proto.params(b)
		jobs = append(jobs, sweep.Job{
			Spec: sweep.Spec{
				Experiment: "table1",
				Kernel:     b.Name,
				Variant:    PreciseVariant(b, p).String(),
				InputSeed:  1,
				Params:     specParams(p),
			},
			Run: func() (any, error) { return runTable1Cell(b, p) },
		})
	}
	rows, err := runSweep[Table1Row](proto.runner(), jobs)
	if err != nil {
		return nil, fmt.Errorf("table 1: %w", err)
	}
	return rows, nil
}

// runTable1Cell measures one benchmark: run the precise build to halt under
// continuous power, counting amenable dynamic instructions.
func runTable1Cell(b *workloads.Benchmark, p workloads.Params) (Table1Row, error) {
	c, err := PreciseVariant(b, p).Compile()
	if err != nil {
		return Table1Row{}, err
	}
	res, _, err := runContinuous(c, b.Inputs(p, 1), contOptions{})
	if err != nil {
		return Table1Row{}, err
	}
	tech := "SWV"
	if b.Mode == compiler.ModeSWP {
		tech = "SWP"
	}
	return Table1Row{
		Benchmark:   b.Name,
		Area:        b.Area,
		Technique:   tech,
		AmenablePct: 100 * float64(res.AmenableOps) / float64(res.Instructions),
		Cycles:      res.Cycles,
		RuntimeMs:   1000 * float64(res.Cycles) / energy.DefaultDeviceConfig().ClockHz,
	}, nil
}

// PrintTable1 renders the rows in the paper's column order.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table I: benchmark characteristics\n")
	fmt.Fprintf(w, "%-10s %-22s %-5s %10s %12s %14s\n",
		"Benchmark", "Area", "Tech", "Insn %", "Cycles", "Runtime (ms)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-22s %-5s %9.2f%% %12d %14.2f\n",
			r.Benchmark, r.Area, r.Technique, r.AmenablePct, r.Cycles, r.RuntimeMs)
	}
}
