package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"whatsnext/internal/asm"
	"whatsnext/internal/compiler"
	"whatsnext/internal/core"
	"whatsnext/internal/cpu"
	"whatsnext/internal/energy"
	"whatsnext/internal/experiments"
	"whatsnext/internal/faultinject"
	"whatsnext/internal/intermittent"
	"whatsnext/internal/mem"
	"whatsnext/internal/quality"
	"whatsnext/internal/sweep"
	"whatsnext/internal/wncheck"
	"whatsnext/internal/workloads"
)

// probe replays cells of a traced round by calling the layer functions
// directly, one span per call, so a cell's time can be attributed to its
// layers. Every replay must reproduce the result the cell returned in the
// round; a mismatch means the per-layer numbers describe other work than
// the timed run, and fails the traced run.
//
// Table I, speedup and fault cells are replayed; the other studies' cells
// appear only in the round spans.
type probe struct {
	tr   *tracer
	root int64 // id of the probe span

	cells int    // cells replayed
	alloc uint64 // bytes allocated by the replays

	cont      time.Duration // continuous cpu.Run to halt
	contInstr uint64

	// Precise builds of speedup cells: RunToHalt under harvested power
	// against a continuous run of the same program and input.
	halt, haltCont           time.Duration
	haltInstr, haltContInstr uint64
	speedupCells             int
	outages                  uint64

	lockstep time.Duration
	points   int
}

// call runs f under a span and returns the span's duration.
func (p *probe) call(name string, parent int64, f func() error) (time.Duration, error) {
	sp := p.tr.begin(name, parent, nil)
	err := f()
	return sp.end(), err
}

// compile times the three steps of compiling each variant.
func (p *probe) compile(vs []experiments.Variant) error {
	for _, v := range vs {
		k := v.Bench.Build(v.Params, v.Bits, v.Provisioned)
		var c *compiler.Compiled
		_, err := p.call("compiler.Compile", p.root, func() (err error) {
			c, err = compiler.Compile(k, compileOptions(v))
			return err
		})
		if err != nil {
			return fmt.Errorf("compile %s: %w", v, err)
		}
		if _, err := p.call("asm.Assemble", p.root, func() error {
			_, err := asm.Assemble(c.Asm)
			return err
		}); err != nil {
			return fmt.Errorf("assemble %s: %w", v, err)
		}
		if _, err := p.call("wncheck.Verify", p.root, func() error {
			_, _, err := wncheck.Verify(c.Program, wncheck.Options{Crash: true, Progress: true})
			return err
		}); err != nil {
			return fmt.Errorf("verify %s: %w", v, err)
		}
	}
	return nil
}

// Result fields each replay must reproduce, decoded from the cell's JSON.
type (
	table1Fields struct {
		Cycles      uint64
		AmenablePct float64
	}
	speedupFields struct {
		WNCycles, PreciseCycles uint64
		NRMSE                   float64
	}
	faultFields struct {
		Points       int
		GoldenCycles uint64
		Divergences  int
	}
)

// replayFunc re-executes a cell inside its probe.cell span and returns the
// check of its result against the cell's.
type replayFunc func(cell int64, s sweep.Spec, b *workloads.Benchmark, params workloads.Params) (func(json.RawMessage) error, error)

// replay re-executes one cell and checks it against the cell's result.
func (p *probe) replay(c cellRecord) error {
	var replay replayFunc
	switch c.Spec.Experiment {
	case "table1":
		replay = p.table1
	case "speedup":
		replay = p.speedup
	case "faults":
		replay = p.faults
	default:
		return nil
	}
	b, err := workloads.ByName(c.Spec.Kernel)
	if err != nil {
		return err
	}
	var params workloads.Params
	if err := json.Unmarshal([]byte(c.Spec.Params["workload"]), &params); err != nil {
		return fmt.Errorf("%s: workload param: %w", c.Spec, err)
	}

	alloc0 := totalAlloc()
	cell := p.tr.begin("probe.cell", p.root, specAttrs(c.Spec))
	check, err := replay(cell.id(), c.Spec, b, params)
	cell.end()
	p.alloc += totalAlloc() - alloc0
	p.cells++
	if err == nil {
		err = check(c.Raw)
	}
	if err != nil {
		return fmt.Errorf("probe %s: %w", c.Spec, err)
	}
	return p.extra(c.Spec, b, params)
}

// matches checks that a cell's encoded result carries the replay's values
// in the fields of T.
func matches[T comparable](got T) func(json.RawMessage) error {
	return func(raw json.RawMessage) error {
		var want T
		if err := json.Unmarshal(raw, &want); err != nil {
			return fmt.Errorf("decode result: %w", err)
		}
		if got != want {
			return fmt.Errorf("replay gives %+v, cell gave %+v", got, want)
		}
		return nil
	}
}

func (p *probe) inputs(cell int64, b *workloads.Benchmark, params workloads.Params, seed int64) map[string][]int64 {
	var in map[string][]int64
	p.call("workloads.Inputs", cell, func() error { in = b.Inputs(params, seed); return nil })
	return in
}

// device builds a bare powered-forever device with the program and inputs
// installed, as the Table I cells do.
func (p *probe) device(parent int64, c *compiler.Compiled, in map[string][]int64) (*cpu.CPU, *mem.Memory, error) {
	var m *mem.Memory
	p.call("mem.New", parent, func() error { m = mem.New(mem.DefaultConfig()); return nil })
	if err := m.LoadProgram(c.Program.Image); err != nil {
		return nil, nil, err
	}
	if err := c.InstallData(m, in); err != nil {
		return nil, nil, err
	}
	cp := cpu.New(m)
	cp.SetAmenablePCs(c.Program.Amenable)
	return cp, m, nil
}

// runCPU executes to halt under continuous power and returns the
// instructions executed.
func (p *probe) runCPU(parent int64, cp *cpu.CPU) (cycles, instrs uint64, err error) {
	d, err := p.call("cpu.Run", parent, func() error {
		for !cp.Halted {
			res, err := cp.Run(1<<62, nil)
			if err != nil {
				return err
			}
			cycles += res.Cycles
			instrs += res.Instructions
		}
		return nil
	})
	p.cont += d
	p.contInstr += instrs
	return cycles, instrs, err
}

func (p *probe) table1(cell int64, _ sweep.Spec, b *workloads.Benchmark, params workloads.Params) (func(json.RawMessage) error, error) {
	c, err := experiments.PreciseVariant(b, params).Compile()
	if err != nil {
		return nil, err
	}
	cp, _, err := p.device(cell, c, p.inputs(cell, b, params, 1))
	if err != nil {
		return nil, err
	}
	cycles, _, err := p.runCPU(cell, cp)
	if err != nil {
		return nil, err
	}
	return matches(table1Fields{
		Cycles:      cycles,
		AmenablePct: 100 * float64(cp.Stats.AmenableOps) / float64(cp.Stats.Instructions),
	}), nil
}

func (p *probe) speedup(cell int64, s sweep.Spec, b *workloads.Benchmark, params workloads.Params) (func(json.RawMessage) error, error) {
	bits, err := strconv.Atoi(s.Params["bits"])
	if err != nil {
		return nil, fmt.Errorf("bits param: %w", err)
	}
	proc, err := processor(s.Processor)
	if err != nil {
		return nil, err
	}
	wn, err := experiments.WNVariant(b, params, bits).Compile()
	if err != nil {
		return nil, err
	}
	precise, err := experiments.PreciseVariant(b, params).Compile()
	if err != nil {
		return nil, err
	}
	in := p.inputs(cell, b, params, s.InputSeed)
	var golden []float64
	p.call("workloads.Golden", cell, func() error { golden = b.Golden(params, in); return nil })

	wnSys, wnRes, _, err := p.system(cell, proc, s.TraceSeed, wn, in)
	if err != nil {
		return nil, err
	}
	wnOut, err := wnSys.Output(b.Output)
	if err != nil {
		return nil, err
	}
	_, prRes, d, err := p.system(cell, proc, s.TraceSeed, precise, in)
	if err != nil {
		return nil, err
	}
	p.halt += d
	p.haltInstr += prRes.Instructions
	p.outages += wnRes.Outages + prRes.Outages
	p.speedupCells++
	return matches(speedupFields{
		WNCycles:      wnRes.TotalCycles(),
		PreciseCycles: prRes.TotalCycles(),
		NRMSE:         quality.NRMSE(wnOut, golden),
	}), nil
}

// system builds a harvested-power device for one build and runs the input
// to completion, as a speedup cell does; it returns RunToHalt's duration.
func (p *probe) system(cell int64, proc core.Processor, traceSeed int64, c *compiler.Compiled,
	in map[string][]int64) (*core.System, intermittent.Result, time.Duration, error) {
	var tr *energy.Trace
	p.call("energy.SyntheticWiFiTrace", cell, func() error {
		tr = energy.SyntheticWiFiTrace(traceSeed, energy.DefaultTraceConfig())
		return nil
	})
	var sys *core.System
	if _, err := p.call("core.NewSystem", cell, func() error {
		cfg := core.DefaultConfig()
		cfg.Processor = proc
		sys = core.NewSystem(cfg, tr)
		return sys.Load(c)
	}); err != nil {
		return nil, intermittent.Result{}, 0, err
	}
	var res intermittent.Result
	d, err := p.call("intermittent.RunToHalt", cell, func() (err error) {
		res, err = sys.RunInput(in)
		return err
	})
	return sys, res, d, err
}

func processor(name string) (core.Processor, error) {
	for _, pr := range []core.Processor{core.ProcClank, core.ProcNVP, core.ProcUndoLog} {
		if pr.String() == name {
			return pr, nil
		}
	}
	return 0, fmt.Errorf("unknown processor %q", name)
}

// faultPolicies mirrors the fault study's runtimes.
var faultPolicies = map[string]func() intermittent.Policy{
	"clank": func() intermittent.Policy { return intermittent.NewClank(intermittent.DefaultClankConfig()) },
	"nvp":   func() intermittent.Policy { return intermittent.NewNVP(intermittent.DefaultNVPConfig()) },
}

func (p *probe) faults(cell int64, s sweep.Spec, b *workloads.Benchmark, params workloads.Params) (func(json.RawMessage) error, error) {
	points, err := strconv.Atoi(s.Params["points"])
	if err != nil {
		return nil, fmt.Errorf("points param: %w", err)
	}
	policy, ok := faultPolicies[s.Processor]
	if !ok {
		return nil, fmt.Errorf("unknown fault runtime %q", s.Processor)
	}
	c, err := experiments.PreciseVariant(b, params).Compile()
	if err != nil {
		return nil, err
	}
	target := faultinject.FromCompiled(b.Name, c, p.inputs(cell, b, params, 1))
	var rep *faultinject.Report
	d, err := p.call("faultinject.RunLockstep", cell, func() (err error) {
		rep, err = faultinject.RunLockstep(target, faultinject.Config{Policy: policy}, faultinject.Schedule{Points: points})
		return err
	})
	if err != nil {
		return nil, err
	}
	p.lockstep += d
	p.points += rep.Points
	return matches(faultFields{Points: rep.Points, GoldenCycles: rep.GoldenCycles, Divergences: len(rep.Divergences)}), nil
}

// extra measures, outside the cell's span, a continuous run of the precise
// program a speedup or fault cell executes: the base of cpu.cell_frac and
// intermittent.overhead_x. Fault cells also time a mem.Clone of the run's
// memory, the injector's fork primitive.
func (p *probe) extra(s sweep.Spec, b *workloads.Benchmark, params workloads.Params) error {
	if s.Experiment == "table1" {
		return nil // the cell itself is the continuous run
	}
	c, err := experiments.PreciseVariant(b, params).Compile()
	if err != nil {
		return err
	}
	seed := int64(1)
	if s.Experiment == "speedup" {
		seed = s.InputSeed
	}
	cp, m, err := p.device(p.root, c, b.Inputs(params, seed))
	if err != nil {
		return err
	}
	before := p.cont
	_, instrs, err := p.runCPU(p.root, cp)
	if err != nil {
		return err
	}
	switch s.Experiment {
	case "speedup":
		p.haltCont += p.cont - before
		p.haltContInstr += instrs
	case "faults":
		p.call("mem.Clone", p.root, func() error { m.Clone(); return nil })
	}
	return nil
}

// probeRound compiles the variants and, under one probe span, replays a
// sample of the cells of the traced round just run: the first cell of each
// experiment, kernel and processor, so the probe's cost stays a bounded share
// of the run.
func probeRound(e *env, vs []experiments.Variant) (*probe, error) {
	p := &probe{tr: e.runner.tr}
	root := p.tr.begin("probe", 0, nil)
	defer root.end()
	p.root = root.id()
	if err := p.compile(vs); err != nil {
		return nil, err
	}
	seen := map[[3]string]bool{}
	for _, c := range e.runner.cells {
		key := [3]string{c.Spec.Experiment, c.Spec.Kernel, c.Spec.Processor}
		if seen[key] {
			continue
		}
		seen[key] = true
		if err := p.replay(c); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// layerMetrics derives the per-layer metrics from the traced rounds' spans
// and the probe's.
func layerMetrics(res *result, p *probe, vs []experiments.Variant, plain, traced roundStats) {
	tr := p.tr

	cells := durations(tr.named("experiments.cell"))
	tailPct, tailV := tail(cells)
	var cellSum, runSum time.Duration
	for _, d := range cells {
		cellSum += d
	}
	for _, s := range tr.named("sweep.run") {
		runSum += s.dur()
	}
	probeCells := sum(durations(tr.named("probe.cell")))

	res.add("experiments.self_ms", ms(selfTime(tr)), "ms", "median per round of study time outside sweep.run")
	res.add("sweep.cell_p50_ms", ms(median(cells)), "ms", fmt.Sprintf("n=%d", len(cells)))
	res.add("sweep.cell_tail_ms", ms(tailV), "ms", fmt.Sprintf("p%g, n=%d", tailPct, len(cells)))
	res.add("sweep.idle_frac", 1-ratio(float64(cellSum), float64(workers())*float64(runSum)), "fraction", "")
	res.add("compiler.compile_ms", ms(meanDur(tr, "compiler.Compile")), "ms", fmt.Sprintf("per variant, %d variants", len(vs)))
	res.add("asm.assemble_ms", ms(meanDur(tr, "asm.Assemble")), "ms", "per variant")
	res.add("wncheck.verify_ms", ms(meanDur(tr, "wncheck.Verify")), "ms", "per variant, crash + progress")
	res.add("workloads.inputs_us", us(meanDur(tr, "workloads.Inputs")), "us", "")
	res.add("workloads.golden_us", us(meanDur(tr, "workloads.Golden")), "us", "")
	res.add("mem.new_us", us(meanDur(tr, "mem.New")), "us", "")
	res.add("mem.alloc_kb_per_cell", ratio(float64(p.alloc)/1e3, float64(p.cells)), "KB", fmt.Sprintf("%d cells replayed", p.cells))
	res.add("cpu.minstr_per_s", ratio(float64(p.contInstr)/1e6, p.cont.Seconds()), "Minstr/s", "continuous cpu.Run")
	res.add("cpu.cell_frac", ratio(float64(p.cont), float64(probeCells)), "fraction", "")
	res.add("core.device_us", us(meanDur(tr, "core.NewSystem")), "us", "NewSystem + Load")
	res.add("energy.trace_us", us(meanDur(tr, "energy.SyntheticWiFiTrace")), "us", "")
	res.add("intermittent.overhead_x", ratio(float64(p.halt), float64(p.haltCont)), "x", "precise RunToHalt / continuous cpu.Run")
	res.add("intermittent.reexec_frac", ratio(float64(p.haltInstr)-float64(p.haltContInstr), float64(p.haltContInstr)), "fraction", "precise builds")
	res.add("intermittent.outages_per_cell", ratio(float64(p.outages), float64(p.speedupCells)), "count", "")
	res.add("faultinject.us_per_point", ratio(us(p.lockstep), float64(p.points)), "us", "")
	res.add("mem.clone_us", us(meanDur(tr, "mem.Clone")), "us", "")
	res.add("trace.overhead_pct", 100*(ratio(float64(median(traced.times)), float64(median(plain.times)))-1), "%",
		fmt.Sprintf("traced vs untraced round_p50_ms, n=%d+%d", len(traced.times), len(plain.times)))
}

// selfTime is the median over traced rounds of the rounds' study time not
// covered by sweep.run spans.
func selfTime(tr *tracer) time.Duration {
	runs := map[int64]time.Duration{} // study span id -> sweep.run time
	for _, s := range tr.named("sweep.run") {
		runs[s.Parent] += s.dur()
	}
	perRound := map[int64]time.Duration{}
	for _, s := range tr.spans {
		if strings.HasPrefix(s.Name, "experiments.") && s.Name != "experiments.cell" {
			perRound[s.Parent] += s.dur() - runs[s.ID]
		}
	}
	var self []time.Duration
	for _, d := range perRound {
		self = append(self, d)
	}
	return median(self)
}

// tail returns the highest standard percentile with at least ten samples
// beyond it (the median when there are fewer than twenty samples), by the
// nearest-rank method.
func tail(ds []time.Duration) (pct float64, v time.Duration) {
	s := slices.Clone(ds)
	slices.Sort(s)
	n := float64(len(s))
	for _, q := range []float64{99.9, 99, 95, 90, 75} {
		if n*(1-q/100) >= 10 {
			return q, s[int(math.Ceil(q/100*n))-1]
		}
	}
	return 50, median(ds)
}

func durations(spans []span) []time.Duration {
	ds := make([]time.Duration, len(spans))
	for i, s := range spans {
		ds[i] = s.dur()
	}
	return ds
}

// meanDur is the mean duration of the spans called name (0 if none).
func meanDur(tr *tracer, name string) time.Duration {
	ds := durations(tr.named(name))
	if len(ds) == 0 {
		return 0
	}
	return sum(ds) / time.Duration(len(ds))
}

// ratio is a/b, or 0 when b is 0 (the layer did no work in this workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
