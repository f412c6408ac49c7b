package faultinject

import (
	"fmt"

	"whatsnext/internal/asm"
	"whatsnext/internal/compiler"
	"whatsnext/internal/cpu"
	"whatsnext/internal/energy"
	"whatsnext/internal/intermittent"
	"whatsnext/internal/mem"
)

// Target is a program under injection: an image plus optional input
// installation, so every run starts from an identical device state.
type Target struct {
	Name     string
	Image    []byte
	Amenable []uint32
	// Install, when non-nil, writes the inputs into data memory after the
	// program image is loaded.
	Install func(m *mem.Memory) error
}

// FromProgram wraps an assembled program.
func FromProgram(name string, p *asm.Program) Target {
	return Target{Name: name, Image: p.Image, Amenable: p.Amenable}
}

// FromCompiled wraps a compiled kernel with its input arrays.
func FromCompiled(name string, c *compiler.Compiled, inputs map[string][]int64) Target {
	return Target{
		Name:     name,
		Image:    c.Program.Image,
		Amenable: c.Program.Amenable,
		// InstallData also pre-fills progress-embedded outputs with their
		// sentinel, so every injected run starts from the same resumable state.
		Install: func(m *mem.Memory) error { return c.InstallData(m, inputs) },
	}
}

// noKill runs a golden (uninterrupted) execution.
const noKill = ^uint64(0)

// runResult is the observable outcome of one run: whether it halted, its
// pure CPU cycle/instruction counts, and the final NV data region.
type runResult struct {
	halted bool
	cycles uint64
	instrs uint64
	data   []byte
}

// device is one target under execution: CPU, memory, runner, policy, and
// the pure-CPU-cycle position. runOnce drives a fresh device end to end;
// the lockstep engine additionally forks mid-run devices at kill
// boundaries, so the window loop lives here, shared by both.
type device struct {
	cfg    Config
	m      *mem.Memory
	c      *cpu.CPU
	r      *intermittent.Runner
	policy intermittent.Policy

	cycles uint64 // pure CPU cycles executed (sum of Cost.Cycles)
	instrs uint64

	// tracked marks a device whose memory has dirty-extent tracking enabled
	// (the lockstep trunk and its forks), allowing windowed re-sync and
	// convergence compares instead of full-region ones.
	tracked bool
}

// newDevice builds a fresh device for the target. The supply exists only
// because policies charge NV-write energy through it; the injector itself
// is the sole source of failures, so a token always-on trace suffices and
// every divergence is attributable to the kill point.
func newDevice(t Target, cfg Config) (*device, error) {
	m := mem.New(cfg.Mem)
	if err := m.LoadProgram(t.Image); err != nil {
		return nil, err
	}
	if t.Install != nil {
		if err := t.Install(m); err != nil {
			return nil, err
		}
	}
	c := cpu.New(m)
	c.SetAmenablePCs(t.Amenable)
	supply := energy.NewSupply(cfg.Device, energy.ConstantTrace(1, 10, 1))
	policy := cfg.Policy()
	return &device{cfg: cfg, m: m, c: c, r: intermittent.NewRunner(c, m, supply, policy), policy: policy}, nil
}

// fork clones the device at its current instruction boundary: memory is
// deep-copied, the CPU shares the decode cache and superblock translation
// with the trunk, and the policy is duplicated via Policy.Fork.
func (d *device) fork() *device {
	m := d.m.Clone()
	return d.forkOnto(m)
}

// forkInto rebuilds a previously used fork on top of the trunk's current
// state without a full memory clone: the spare's memory is known to match
// the trunk everywhere outside (spare writes since its sync) ∪ (trunk
// writes since that sync), so copying just that union re-synchronizes it in
// O(bytes actually touched). Tracking stamps are not copied — the forced
// failure the caller applies next issues a ClearAccessSets, and the spare's
// epoch only moves forward, so its stale stamps can never read as current.
func (d *device) forkInto(spare *device) *device {
	ext := spare.m.Dirty().Union(d.m.Dirty())
	spare.m.CopyDirty(d.m, ext)
	spare.m.ResetDirty()
	d.m.ResetDirty()
	return d.forkOnto(spare.m)
}

// forkOnto builds the CPU/runner/policy fork on an already-synced memory.
func (d *device) forkOnto(m *mem.Memory) *device {
	c := d.c.Fork(m)
	r := d.r.Fork(c, m, energy.NewSupply(d.cfg.Device, energy.ConstantTrace(1, 10, 1)))
	return &device{cfg: d.cfg, m: m, c: c, r: r, policy: r.Policy,
		cycles: d.cycles, instrs: d.instrs, tracked: d.tracked}
}

// runTo advances the device until it halts, reaches the first instruction
// boundary at or past stop (pure CPU cycles), or crosses budget. The loop
// mirrors the batched executor in internal/intermittent: windows are
// bounded by the policy's horizon so overhead charges (watchdog
// checkpoints) land on the exact instruction per-instruction AfterStep
// calls would pick, the policy advances once per window through BatchWindow, and
// NV-data stores are routed through Step so BeforeStore hooks (Clank's
// violation checkpoints, the undo log) retain full fidelity.
func (d *device) runTo(stop, budget uint64, collect *[]cpu.Cost) error {
	var forceStep bool
	stepOnce := func() error {
		cost, err := d.c.Step()
		if err != nil {
			return err
		}
		d.policy.BatchWindow(uint64(cost.Cycles))
		d.cycles += uint64(cost.Cycles)
		d.instrs++
		if collect != nil {
			*collect = append(*collect, cost)
		}
		return nil
	}

	for !d.c.Halted {
		if d.cycles > budget || d.cycles >= stop {
			return nil
		}
		if forceStep {
			forceStep = false
			if err := stepOnce(); err != nil {
				return err
			}
			continue
		}
		horizon, _ := d.policy.BatchHorizon()
		if horizon == 0 {
			// A checkpoint is due at this exact boundary; take the
			// per-step path so it observes the right state.
			if err := stepOnce(); err != nil {
				return err
			}
			continue
		}
		win := horizon
		if left := stop - d.cycles; left < win {
			win = left
		}
		if budget != ^uint64(0) {
			// cycles <= budget here (checked at the top of the loop), so
			// this cannot underflow; +1 lets the window cross the budget
			// line so the overshoot is detected.
			if left := budget - d.cycles + 1; left < win {
				win = left
			}
		}
		res, err := d.c.Run(win, collect)
		d.policy.BatchWindow(res.Cycles)
		d.cycles += res.Cycles
		d.instrs += res.Instructions
		if err != nil {
			return fmt.Errorf("at cycle %d: %w", d.cycles, err)
		}
		forceStep = res.Reason == cpu.StopStore
	}
	return nil
}

// result snapshots the observable outcome of a finished run.
func (d *device) result() (runResult, error) {
	if !d.c.Halted {
		return runResult{halted: false, cycles: d.cycles, instrs: d.instrs}, nil
	}
	out := runResult{halted: true, cycles: d.cycles, instrs: d.instrs}
	out.data = make([]byte, d.cfg.Mem.DataBytes)
	if err := d.m.ReadData(mem.DataBase, out.data); err != nil {
		return runResult{}, err
	}
	return out, nil
}

// runOnce executes the target on a fresh device, killing power at the
// first instruction boundary at or after killCycle (pure CPU cycles).
// When collect is non-nil every instruction's cost is appended, giving the
// caller the golden run's boundary schedule. When onKill is non-nil it runs
// right after the forced failure/restore round trip — CrossValidate uses it
// to advance input locations, modeling an external world that moved on
// while the device was dark.
func runOnce(t Target, cfg Config, killCycle, budget uint64, collect *[]cpu.Cost, onKill func(*mem.Memory)) (runResult, error) {
	d, err := newDevice(t, cfg)
	if err != nil {
		return runResult{}, err
	}
	if killCycle != noKill {
		if err := d.runTo(killCycle, budget, collect); err != nil {
			return runResult{}, err
		}
		if !d.c.Halted && d.cycles <= budget {
			d.r.ForceFailure()
			if onKill != nil {
				onKill(d.m)
			}
		}
	}
	if err := d.runTo(noKill, budget, collect); err != nil {
		return runResult{}, err
	}
	return d.result()
}
