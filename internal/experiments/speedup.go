package experiments

import (
	"fmt"
	"io"
	"sync"

	"whatsnext/internal/core"
	"whatsnext/internal/energy"
	"whatsnext/internal/quality"
	"whatsnext/internal/sweep"
	"whatsnext/internal/workloads"
)

// SpeedupRow is one bar pair of Figures 10 and 11: a benchmark's speedup
// and output error at a subword size on a processor type.
type SpeedupRow struct {
	Benchmark string
	Bits      int
	Speedup   float64 // median over (trace, invocation) samples
	NRMSE     float64 // median output error of the WN runs
	Samples   int
}

// speedupCell is the structured result of one (trace, invocation) cell:
// both builds run to completion on the same trace, and the ratio and error
// are aggregated afterwards.
type speedupCell struct {
	WNCycles      uint64
	PreciseCycles uint64
	NRMSE         float64
}

func (c speedupCell) SimulatedCycles() uint64 { return c.WNCycles + c.PreciseCycles }

// SpeedupStudy reproduces Figure 10 (ProcClank) or Figure 11 (ProcNVP):
// each benchmark processes inputs under harvested power on 'proto.Traces'
// distinct synthetic Wi-Fi traces with 'proto.Invocations' input seeds.
// The WN build takes its result as-is at the first outage past a skim
// point; the precise build must resume across outages until exact
// completion. Speedup compares wall-clock completion times per input.
//
// Every (benchmark, bits, trace, invocation) cell is an independent job;
// the whole study, both bit widths, is resolved and submitted to the sweep
// engine as one batch, so all cells run concurrently and the 8- and 4-bit
// cells of a (benchmark, trace, invocation) share one precise baseline.
func SpeedupStudy(proc core.Processor, proto Protocol) ([]SpeedupRow, error) {
	type group struct {
		b    *workloads.Benchmark
		bits int
		n    int
	}
	var specs []sweep.Spec
	var groups []group
	for _, b := range workloads.All() {
		p := proto.params(b)
		for _, bits := range []int{8, 4} {
			gs := speedupSpecs(proc, b, p, bits, proto)
			groups = append(groups, group{b, bits, len(gs)})
			specs = append(specs, gs...)
		}
	}
	jobs, err := ResolveSpecs(specs)
	if err != nil {
		return nil, err
	}
	cells, err := runSweep[speedupCell](proto.runner(), jobs)
	if err != nil {
		return nil, fmt.Errorf("speedup on %s: %w", proc, err)
	}
	var rows []SpeedupRow
	off := 0
	for _, g := range groups {
		rows = append(rows, speedupRow(g.b, g.bits, cells[off:off+g.n]))
		off += g.n
	}
	return rows, nil
}

// speedupSpec names one (trace, invocation) cell. Every knob the cell
// depends on is a spec field or param, so ResolveSpec can rebuild it.
func speedupSpec(proc core.Processor, b *workloads.Benchmark, p workloads.Params, bits int, traceSeed, inputSeed int64) sweep.Spec {
	return sweep.Spec{
		Experiment: "speedup",
		Kernel:     b.Name,
		Variant:    WNVariant(b, p, bits).String(),
		Processor:  proc.String(),
		Source:     string(energy.SourceWiFi),
		TraceSeed:  traceSeed,
		InputSeed:  inputSeed,
		Params:     specParams(p, "bits", itoa(bits)),
	}
}

// speedupSpecs enumerates the (trace, invocation) cells of one bar pair.
func speedupSpecs(proc core.Processor, b *workloads.Benchmark, p workloads.Params, bits int, proto Protocol) []sweep.Spec {
	var specs []sweep.Spec
	for t := 0; t < proto.Traces; t++ {
		traceSeed := int64(1000 + 17*t)
		for inv := 0; inv < proto.Invocations; inv++ {
			specs = append(specs, speedupSpec(proc, b, p, bits, traceSeed, int64(1+inv)))
		}
	}
	return specs
}

// preciseKey names one precise baseline: every field of a speedup spec
// except bits, which only the WN build depends on.
type preciseKey struct {
	kernel, workload, processor, source string
	traceSeed, inputSeed                int64
}

// baselineKey is the precise baseline a speedup spec's cell compares with.
func baselineKey(s sweep.Spec) preciseKey {
	return preciseKey{
		kernel:    s.Kernel,
		workload:  s.Params["workload"],
		processor: s.Processor,
		source:    s.Source,
		traceSeed: s.TraceSeed,
		inputSeed: s.InputSeed,
	}
}

// preciseTable shares precise baselines among the speedup cells of one
// ResolveSpecs batch, and lives only as long as that batch's jobs. The
// first cell that needs a key simulates it; the others reuse the result,
// error included, or wait for it while it is still running.
type preciseTable struct {
	mu      sync.Mutex
	entries map[preciseKey]*preciseEntry
}

type preciseEntry struct {
	once   sync.Once
	cycles uint64
	err    error
}

// cycles returns the precise cycle count of key, calling sim if no cell of
// the batch has yet. A waiting caller never waits longer than calling sim
// itself would take, and the caller running sim waits on nothing, so
// sharing cannot deadlock.
func (t *preciseTable) cycles(key preciseKey, sim func() (uint64, error)) (uint64, error) {
	t.mu.Lock()
	e := t.entries[key]
	if e == nil {
		if t.entries == nil {
			t.entries = make(map[preciseKey]*preciseEntry)
		}
		e = new(preciseEntry)
		t.entries[key] = e
	}
	t.mu.Unlock()
	e.once.Do(func() { e.cycles, e.err = simulateBaseline(key, sim) })
	return e.cycles, e.err
}

// simulateBaseline runs the simulation of one precise baseline. Tests swap
// it to count or fail the baselines a batch simulates.
var simulateBaseline = func(_ preciseKey, sim func() (uint64, error)) (uint64, error) { return sim() }

// runSpeedupCell simulates one cell: the WN build on the seeded trace and
// input, then the precise build on the same trace and input, which it takes
// from the batch's baseline table (simulating it there if it is the first
// cell of the batch to need it). It compiles its own binaries so cells can
// run on any worker.
func runSpeedupCell(base *preciseTable, key preciseKey, proc core.Processor, b *workloads.Benchmark, p workloads.Params, bits int) (speedupCell, error) {
	wn, err := WNVariant(b, p, bits).Compile()
	if err != nil {
		return speedupCell{}, err
	}
	in := b.Inputs(p, key.inputSeed)
	golden := b.Golden(p, in)
	trace := energy.SyntheticWiFiTrace(key.traceSeed, energy.DefaultTraceConfig())

	wnSys := intermittentSystemOn(proc, trace, false)
	if err := wnSys.Load(wn); err != nil {
		return speedupCell{}, err
	}
	wnRes, err := wnSys.RunInput(in)
	if err != nil {
		return speedupCell{}, err
	}
	wnOut, err := wnSys.Output(b.Output)
	if err != nil {
		return speedupCell{}, err
	}

	preciseCycles, err := base.cycles(key, func() (uint64, error) {
		return simulatePrecise(proc, b, p, trace, in)
	})
	if err != nil {
		return speedupCell{}, err
	}
	return speedupCell{
		WNCycles:      wnRes.TotalCycles(),
		PreciseCycles: preciseCycles,
		NRMSE:         quality.NRMSE(wnOut, golden),
	}, nil
}

// simulatePrecise runs the precise build to exact completion on a trace and
// input and returns its wall-clock cycles.
func simulatePrecise(proc core.Processor, b *workloads.Benchmark, p workloads.Params, trace *energy.Trace, in map[string][]int64) (uint64, error) {
	precise, err := PreciseVariant(b, p).Compile()
	if err != nil {
		return 0, err
	}
	sys := intermittentSystemOn(proc, trace, false)
	if err := sys.Load(precise); err != nil {
		return 0, err
	}
	res, err := sys.RunInput(in)
	if err != nil {
		return 0, err
	}
	return res.TotalCycles(), nil
}

// speedupRow aggregates a bar pair's cells into the published medians.
func speedupRow(b *workloads.Benchmark, bits int, cells []speedupCell) SpeedupRow {
	var speedups, errors []float64
	for _, c := range cells {
		speedups = append(speedups, float64(c.PreciseCycles)/float64(c.WNCycles))
		errors = append(errors, c.NRMSE)
	}
	return SpeedupRow{
		Benchmark: b.Name,
		Bits:      bits,
		Speedup:   quality.Median(speedups),
		NRMSE:     quality.Median(errors),
		Samples:   len(speedups),
	}
}

// SpeedupSummary averages the per-benchmark rows for one subword size, as
// quoted in the paper's abstract (e.g. 1.78x/3.02x on Clank).
func SpeedupSummary(rows []SpeedupRow, bits int) (speedup, nrmse float64) {
	var sp, er []float64
	for _, r := range rows {
		if r.Bits == bits {
			sp = append(sp, r.Speedup)
			er = append(er, r.NRMSE)
		}
	}
	return quality.GeoMean(sp), quality.Mean(er)
}

// PrintSpeedup renders a Figure 10/11-style table.
func PrintSpeedup(w io.Writer, title string, rows []SpeedupRow) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-10s %6s %10s %10s %8s\n", "Benchmark", "Bits", "Speedup", "NRMSE %", "Samples")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %6d %9.2fx %10.3f %8d\n", r.Benchmark, r.Bits, r.Speedup, r.NRMSE, r.Samples)
	}
	for _, bits := range []int{8, 4} {
		sp, er := SpeedupSummary(rows, bits)
		fmt.Fprintf(w, "average (%d-bit): %.2fx speedup, %.2f%% NRMSE\n", bits, sp, er)
	}
}
