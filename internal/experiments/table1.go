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

// Table1Specs enumerates the study's cells — one per benchmark — as bare
// specs, which ResolveSpecs turns back into runnable jobs.
func Table1Specs(proto Protocol) []sweep.Spec {
	var specs []sweep.Spec
	for _, b := range workloads.All() {
		p := proto.params(b)
		specs = append(specs, sweep.Spec{
			Experiment: "table1",
			Kernel:     b.Name,
			Variant:    PreciseVariant(b, p).String(),
			InputSeed:  1,
			Params:     specParams(p),
		})
	}
	return specs
}

// Table1 measures every benchmark's precise build through the sweep engine.
// Amenable instructions are those the compiler marked as targets for
// subword pipelining or vectorization.
func Table1(proto Protocol) ([]Table1Row, error) {
	jobs, err := ResolveSpecs(Table1Specs(proto))
	if err != nil {
		return nil, err
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
	clk := energy.DefaultDeviceConfig().ClockHz
	c, err := PreciseVariant(b, p).Compile()
	if err != nil {
		return Table1Row{}, err
	}
	cp, _, err := bareDevice(c, b.Inputs(p, 1), false)
	if err != nil {
		return Table1Row{}, err
	}
	cp.SetAmenablePCs(c.Program.Amenable)
	var cycles uint64
	for !cp.Halted {
		res, err := cp.Run(1<<62, nil)
		if err != nil {
			return Table1Row{}, fmt.Errorf("%s fault: %w", b.Name, err)
		}
		cycles += res.Cycles
	}
	tech := "SWV"
	if b.Mode == compiler.ModeSWP {
		tech = "SWP"
	}
	return Table1Row{
		Benchmark:   b.Name,
		Area:        b.Area,
		Technique:   tech,
		AmenablePct: 100 * float64(cp.Stats.AmenableOps) / float64(cp.Stats.Instructions),
		Cycles:      cycles,
		RuntimeMs:   1000 * float64(cycles) / clk,
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
