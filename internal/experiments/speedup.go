package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
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
// the whole study, both bit widths, is submitted to the sweep engine as one
// batch, so all cells run concurrently, the 8- and 4-bit cells of a
// (benchmark, trace, invocation) share one precise baseline, the cells of
// a (benchmark, invocation) share one input set, and the cells of a trace
// seed share one trace.
func SpeedupStudy(proc core.Processor, proto Protocol) ([]SpeedupRow, error) {
	type group struct {
		b    *workloads.Benchmark
		bits int
		n    int
	}
	batch := &batchTable{}
	var jobs []sweep.Job
	var groups []group
	for _, b := range workloads.All() {
		p := proto.params(b)
		for _, bits := range []int{8, 4} {
			specs := speedupSpecs(proc, b, p, bits, proto)
			for _, s := range specs {
				jobs = append(jobs, speedupJob(batch, s, proc, b, p, bits))
			}
			groups = append(groups, group{b, bits, len(specs)})
		}
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

// speedupSpec names one (trace, invocation) cell: every knob the cell
// depends on is a spec field or param.
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

// speedupJob is the job of one speedup cell: s names the cell, and the
// typed values it was built from run it. The cell takes its trace, input
// set and precise baseline from batch, which the jobs of one batch share.
func speedupJob(batch *batchTable, s sweep.Spec, proc core.Processor, b *workloads.Benchmark, p workloads.Params, bits int) sweep.Job {
	key := baselineKey(s)
	return sweep.Job{Spec: s, Run: func() (any, error) {
		return runSpeedupCell(batch, key, proc, b, p, bits)
	}}
}

// ResolveSpecs decodes a batch of hand-built speedup specs into the jobs
// SpeedupStudy would build for them, naming the index of the first bad
// spec. It exists only for bench/wnperf, whose paper-scale Figure 10/11
// round writes its cells as specs; every study builds its jobs directly.
// Each job carries its spec unchanged. The batch's jobs share one table of
// traces, input sets and precise baselines, so another call builds them
// afresh.
func ResolveSpecs(specs []sweep.Spec) ([]sweep.Job, error) {
	batch := &batchTable{}
	jobs := make([]sweep.Job, len(specs))
	for i, s := range specs {
		j, err := decodeSpeedupSpec(batch, s)
		if err != nil {
			return nil, fmt.Errorf("spec %d: experiments: %s spec: %w", i, s.Experiment, err)
		}
		jobs[i] = j
	}
	return jobs, nil
}

// decodeSpeedupSpec validates one speedup spec and builds its job. A spec
// whose redundant variant label disagrees with its fields is rejected: it
// would poison shared caches with mislabeled results.
func decodeSpeedupSpec(batch *batchTable, s sweep.Spec) (sweep.Job, error) {
	if s.Experiment != "speedup" {
		return sweep.Job{}, fmt.Errorf("unresolvable experiment %q (only speedup specs decode)", s.Experiment)
	}
	b, err := workloads.ByName(s.Kernel)
	if err != nil {
		return sweep.Job{}, err
	}
	var p workloads.Params
	if err := json.Unmarshal([]byte(s.Params["workload"]), &p); err != nil {
		return sweep.Job{}, fmt.Errorf("bad workload param %q: %v", s.Params["workload"], err)
	}
	proc, err := parseProcessor(s.Processor)
	if err != nil {
		return sweep.Job{}, err
	}
	raw, ok := s.Params["bits"]
	if !ok {
		return sweep.Job{}, fmt.Errorf("missing %q param", "bits")
	}
	bits, err := strconv.Atoi(raw)
	if err != nil {
		return sweep.Job{}, fmt.Errorf("bad %q param %q", "bits", raw)
	}
	if bits < 1 || bits > 8 {
		return sweep.Job{}, fmt.Errorf("bits %d out of range [1,8]", bits)
	}
	if want := WNVariant(b, p, bits).String(); s.Variant != "" && s.Variant != want {
		return sweep.Job{}, fmt.Errorf("variant %q does not match spec fields (%q)", s.Variant, want)
	}
	return speedupJob(batch, s, proc, b, p, bits), nil
}

// parseProcessor inverts core.Processor.String.
func parseProcessor(name string) (core.Processor, error) {
	for _, p := range []core.Processor{core.ProcClank, core.ProcNVP, core.ProcUndoLog} {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown processor %q (want clank, nvp or undolog)", name)
}

// inputKey names one input set of speedup cells: their kernel, workload
// params and input seed.
type inputKey struct {
	kernel, workload string
	inputSeed        int64
}

// preciseKey names one precise baseline: every field of a speedup spec
// except bits, which only the WN build depends on.
type preciseKey struct {
	inputKey
	processor, source string
	traceSeed         int64
}

// baselineKey is the precise baseline a speedup spec's cell compares with.
func baselineKey(s sweep.Spec) preciseKey {
	return preciseKey{
		inputKey:  inputKey{kernel: s.Kernel, workload: s.Params["workload"], inputSeed: s.InputSeed},
		processor: s.Processor,
		source:    s.Source,
		traceSeed: s.TraceSeed,
	}
}

// inputSet is a cell's inputs and the golden output they give.
type inputSet struct {
	in     map[string][]int64
	golden []float64
}

// batchTable shares what the cells of one batch have in common, and lives
// only as long as that batch's jobs: harvest traces by seed, and the input
// sets and precise baselines of speedup cells. The first cell that needs
// an entry builds it; the others reuse it, error included, or wait for it
// while it is still being built. A waiting caller never waits longer than
// building the entry itself would take, and the builder waits on nothing,
// so sharing cannot deadlock.
type batchTable struct {
	mu        sync.Mutex
	traces    map[int64]*batchEntry[*energy.Trace]
	inputSets map[inputKey]*batchEntry[inputSet]
	baselines map[preciseKey]*batchEntry[uint64]
}

type batchEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

// shared returns the entry of key in *entries, calling build if no cell of
// t's batch has yet.
func shared[K comparable, V any](t *batchTable, entries *map[K]*batchEntry[V], key K, build func() (V, error)) (V, error) {
	t.mu.Lock()
	e := (*entries)[key]
	if e == nil {
		if *entries == nil {
			*entries = make(map[K]*batchEntry[V])
		}
		e = new(batchEntry[V])
		(*entries)[key] = e
	}
	t.mu.Unlock()
	e.once.Do(func() { e.v, e.err = build() })
	return e.v, e.err
}

// trace returns the seeded Wi-Fi harvest trace of the batch. Supplies only
// read a trace, so every device of the batch may run on it.
func (t *batchTable) trace(seed int64) *energy.Trace {
	tr, _ := shared(t, &t.traces, seed, func() (*energy.Trace, error) { return wifiTrace(seed), nil })
	return tr
}

// inputs returns the input set of key, whose kernel and params are b and
// p. Devices only read their inputs and quality only reads the golden
// output, so every cell of the batch may use them.
func (t *batchTable) inputs(key inputKey, b *workloads.Benchmark, p workloads.Params) inputSet {
	set, _ := shared(t, &t.inputSets, key, func() (inputSet, error) { return buildInputs(b, p, key.inputSeed), nil })
	return set
}

// buildInputs generates a benchmark's seeded inputs and their golden
// output. Tests swap it to count the input sets a batch builds.
var buildInputs = func(b *workloads.Benchmark, p workloads.Params, seed int64) inputSet {
	in := b.Inputs(p, seed)
	return inputSet{in: in, golden: b.Golden(p, in)}
}

// cycles returns the precise cycle count of key, calling sim if no cell of
// the batch has yet.
func (t *batchTable) cycles(key preciseKey, sim func() (uint64, error)) (uint64, error) {
	return shared(t, &t.baselines, key, func() (uint64, error) { return simulateBaseline(key, sim) })
}

// simulateBaseline runs the simulation of one precise baseline. Tests swap
// it to count or fail the baselines a batch simulates.
var simulateBaseline = func(_ preciseKey, sim func() (uint64, error)) (uint64, error) { return sim() }

// runSpeedupCell simulates one cell: the WN build on the seeded trace and
// input, then the precise build on the same trace and input. It takes the
// trace, the input set and the precise result from the batch's table,
// building them there if it is the first cell of the batch to need them.
// It compiles its own binaries so cells can run on any worker.
func runSpeedupCell(batch *batchTable, key preciseKey, proc core.Processor, b *workloads.Benchmark, p workloads.Params, bits int) (speedupCell, error) {
	wn, err := WNVariant(b, p, bits).Compile()
	if err != nil {
		return speedupCell{}, err
	}
	set := batch.inputs(key.inputKey, b, p)
	trace := batch.trace(key.traceSeed)

	wnSys := intermittentSystem(proc, trace)
	if err := wnSys.Load(wn); err != nil {
		return speedupCell{}, err
	}
	wnRes, err := wnSys.RunInput(set.in)
	if err != nil {
		return speedupCell{}, err
	}
	wnOut, err := wnSys.Output(b.Output)
	if err != nil {
		return speedupCell{}, err
	}

	preciseCycles, err := batch.cycles(key, func() (uint64, error) {
		return simulatePrecise(proc, b, p, trace, set.in)
	})
	if err != nil {
		return speedupCell{}, err
	}
	return speedupCell{
		WNCycles:      wnRes.TotalCycles(),
		PreciseCycles: preciseCycles,
		NRMSE:         quality.NRMSE(wnOut, set.golden),
	}, nil
}

// simulatePrecise runs the precise build to exact completion on a trace and
// input and returns its wall-clock cycles.
func simulatePrecise(proc core.Processor, b *workloads.Benchmark, p workloads.Params, trace *energy.Trace, in map[string][]int64) (uint64, error) {
	precise, err := PreciseVariant(b, p).Compile()
	if err != nil {
		return 0, err
	}
	sys := intermittentSystem(proc, trace)
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
