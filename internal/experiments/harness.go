// Package experiments reproduces every table and figure of the paper's
// evaluation (Section V): the runtime-quality curves, the intermittent
// speedup studies on both processor types, the design-exploration case
// studies, and the motivating examples of Section II. Each experiment
// returns structured results that cmd/wnbench prints in the paper's layout
// and bench_test.go exercises as Go benchmarks.
package experiments

import (
	"fmt"
	"sync"

	"whatsnext/internal/compiler"
	"whatsnext/internal/core"
	"whatsnext/internal/cpu"
	"whatsnext/internal/energy"
	"whatsnext/internal/mem"
	"whatsnext/internal/quality"
	"whatsnext/internal/sweep"
	"whatsnext/internal/workloads"
)

// Protocol controls experiment effort. The paper invokes each application
// 3 times on 9 distinct voltage traces and reports medians; the default
// here is a lighter 1x3 protocol so the whole suite runs in seconds, with
// Full() restoring the paper's protocol.
type Protocol struct {
	Traces      int  // distinct harvest-trace seeds
	Invocations int  // input seeds per trace
	PaperScale  bool // paper-size inputs instead of scaled ones

	// Runner, when non-nil, runs each study's independent simulation cells,
	// typically through a *sweep.Engine (worker pool + result cache) or a
	// wrapper that observes each study's jobs. Nil selects a serial,
	// uncached engine whose output is the reference: a runner must return
	// each job's encoded result in submission order, so any parallel
	// engine reproduces it byte for byte.
	Runner sweep.Runner
}

// DefaultProtocol returns the fast protocol used by tests and benches.
func DefaultProtocol() Protocol { return Protocol{Traces: 3, Invocations: 1} }

// FullProtocol returns the paper's 3x9 protocol at paper input sizes.
func FullProtocol() Protocol { return Protocol{Traces: 9, Invocations: 3, PaperScale: true} }

func (p Protocol) params(b *workloads.Benchmark) workloads.Params {
	if p.PaperScale {
		return b.DefaultParams()
	}
	return b.ScaledParams()
}

// Variant names one compiled configuration of a benchmark.
type Variant struct {
	Bench       *workloads.Benchmark
	Params      workloads.Params
	Mode        compiler.Mode
	Bits        int
	Provisioned bool
	VectorLoads bool
	// ProgressEmbed selects the fused store-once lowering with the
	// Stateful-style resume scan (requires the kernel to declare
	// Progress); MaxPasses truncates to the most significant subword
	// passes (the NN study's accuracy-vs-energy axis).
	ProgressEmbed bool
	MaxPasses     int
}

// WNVariant returns the benchmark's anytime configuration at a subword
// size, using provisioned addition (the paper's SWV default).
func WNVariant(b *workloads.Benchmark, p workloads.Params, bits int) Variant {
	return Variant{Bench: b, Params: p, Mode: b.Mode, Bits: bits, Provisioned: true}
}

// PreciseVariant returns the conventional full-precision configuration.
func PreciseVariant(b *workloads.Benchmark, p workloads.Params) Variant {
	return Variant{Bench: b, Params: p, Mode: compiler.ModePrecise, Bits: 8}
}

// compileKey is the value identity of a Variant: two variants with equal
// keys compile to identical programs (compilation is deterministic).
type compileKey struct {
	bench         string
	params        workloads.Params
	mode          compiler.Mode
	bits          int
	provisioned   bool
	vectorLoads   bool
	progressEmbed bool
	maxPasses     int
}

// compileCache memoizes Variant.Compile. The studies compile the same
// handful of variants hundreds of times — once per trace seed, invocation,
// and sweep cell — and the Compiled result is immutable after construction,
// so one compilation serves them all.
var compileCache sync.Map // compileKey -> *compiler.Compiled

// Compile lowers the variant, reusing a prior identical compilation.
func (v Variant) Compile() (*compiler.Compiled, error) {
	key := compileKey{
		bench:         v.Bench.Name,
		params:        v.Params,
		mode:          v.Mode,
		bits:          v.Bits,
		provisioned:   v.Provisioned,
		vectorLoads:   v.VectorLoads,
		progressEmbed: v.ProgressEmbed,
		maxPasses:     v.MaxPasses,
	}
	if c, ok := compileCache.Load(key); ok {
		return c.(*compiler.Compiled), nil
	}
	k := v.Bench.Build(v.Params, v.Bits, v.Provisioned)
	c, err := compiler.Compile(k, compiler.Options{
		Mode:          v.Mode,
		VectorLoads:   v.VectorLoads,
		ProgressEmbed: v.ProgressEmbed,
		MaxPasses:     v.MaxPasses,
	})
	if err != nil {
		return nil, err
	}
	compileCache.Store(key, c)
	return c, nil
}

func (v Variant) String() string {
	var s string
	if v.Mode == compiler.ModePrecise {
		s = v.Bench.Name + "/precise"
	} else {
		s = fmt.Sprintf("%s/%s%d", v.Bench.Name, v.Mode, v.Bits)
	}
	if v.VectorLoads {
		s += "+vloads"
	}
	if v.MaxPasses > 0 {
		s += fmt.Sprintf("+p%d", v.MaxPasses)
	}
	if v.ProgressEmbed {
		s += "+embed"
	}
	return s
}

// contOptions controls a continuous (always-powered) run.
type contOptions struct {
	memo        *cpu.MemoTable // the run's memo table (nil = none)
	stopAtSkim  bool           // stop when the first skim point arms
	cycleBudget uint64         // stop after this many cycles (0 = none)
	sampleEvery uint64         // invoke sample() at this cycle period (0 = never)
	sample      func(cycles uint64, m *mem.Memory)
}

// contResult is the outcome of a continuous run.
type contResult struct {
	Cycles       uint64
	Instructions uint64
	AmenableOps  uint64 // dynamic instructions at the compiler's amenable PCs
}

// runContinuous executes the program under uninterrupted power through the
// batched executor. Windows are sized to the next observable boundary — a
// quality sample or the cycle budget — and Run stops at the first
// instruction that crosses it (and at every SKM), so samples, skim stops,
// and budget stops land on exactly the instruction boundaries stepping one
// instruction at a time would produce.
func runContinuous(c *compiler.Compiled, inputs map[string][]int64, opt contOptions) (contResult, *mem.Memory, error) {
	m, cp, err := core.NewDevice(core.ProgramOf(c, inputs))
	if err != nil {
		return contResult{}, nil, err
	}
	cp.Memo = opt.memo
	var cycles uint64
	nextSample := opt.sampleEvery
	for !cp.Halted {
		budget := uint64(1) << 62
		if opt.sampleEvery != 0 && nextSample-cycles < budget {
			budget = nextSample - cycles
		}
		if opt.cycleBudget != 0 && opt.cycleBudget-cycles < budget {
			budget = opt.cycleBudget - cycles
		}
		res, err := cp.Run(budget, nil)
		if err != nil {
			return contResult{}, nil, fmt.Errorf("experiments: %s fault: %w", c.Kernel.Name, err)
		}
		cycles += res.Cycles
		if opt.sampleEvery != 0 && cycles >= nextSample {
			opt.sample(cycles, m)
			nextSample += opt.sampleEvery
		}
		if opt.stopAtSkim && cp.SkimArmed {
			break
		}
		if opt.cycleBudget != 0 && cycles >= opt.cycleBudget {
			break
		}
	}
	return contResult{Cycles: cycles, Instructions: cp.Stats.Instructions, AmenableOps: cp.Stats.AmenableOps}, m, nil
}

// outputNRMSE scores the current output of a memory against golden values.
func outputNRMSE(c *compiler.Compiled, m *mem.Memory, output string, golden []float64) (float64, error) {
	got, err := c.Layout.OutputValues(m, output)
	if err != nil {
		return 0, err
	}
	return quality.NRMSE(got, golden), nil
}

// preciseCycles measures the baseline full-precision runtime in cycles.
func preciseCycles(b *workloads.Benchmark, p workloads.Params, seed int64) (uint64, error) {
	c, err := PreciseVariant(b, p).Compile()
	if err != nil {
		return 0, err
	}
	res, _, err := runContinuous(c, b.Inputs(p, seed), contOptions{})
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}

// intermittentSystem builds a powered device on a seeded synthetic Wi-Fi
// trace for the given processor kind.
func intermittentSystem(proc core.Processor, traceSeed int64, memo bool) *core.System {
	return intermittentSystemOn(proc, energy.SyntheticWiFiTrace(traceSeed, energy.DefaultTraceConfig()), memo)
}

// intermittentSystemOn builds a powered device on a given harvest trace. The
// supply only reads the trace, so devices may share one.
func intermittentSystemOn(proc core.Processor, trace *energy.Trace, memo bool) *core.System {
	cfg := core.DefaultConfig()
	cfg.Processor = proc
	cfg.Memoization = memo
	return core.NewSystem(cfg, trace)
}
