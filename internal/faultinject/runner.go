package faultinject

import (
	"fmt"

	"whatsnext/internal/asm"
	"whatsnext/internal/compiler"
	"whatsnext/internal/core"
	"whatsnext/internal/cpu"
	"whatsnext/internal/energy"
	"whatsnext/internal/intermittent"
	"whatsnext/internal/mem"
)

// Target is a program under injection: the program a device is built from
// (image, amenable marks, memory geometry and optional input installer),
// so every run starts from an identical device state.
type Target struct {
	Name string
	core.Program
}

// FromProgram wraps an assembled program, at the default memory geometry.
func FromProgram(name string, p *asm.Program) Target {
	return Target{Name: name, Program: core.AssembledProgram(p)}
}

// FromCompiled wraps a compiled kernel with its input arrays, at the
// kernel's own memory geometry. Its inputs install through InstallData,
// which also pre-fills progress-embedded outputs with their sentinel, so
// every injected run starts from the same resumable state.
func FromCompiled(name string, c *compiler.Compiled, inputs map[string][]int64) Target {
	return Target{Name: name, Program: core.ProgramOf(c, inputs)}
}

// device is one target under execution: CPU, memory, runner, policy, and
// the pure-CPU-cycle and instruction position. The campaign's trunk is
// one; each kill point forks it and drives the fork to its outcome.
type device struct {
	m      *mem.Memory
	c      *cpu.CPU
	r      *intermittent.Runner
	policy intermittent.Policy

	cycles uint64 // pure CPU cycles executed (sum of Cost.Cycles)
	instrs uint64 // instructions executed
}

// newSupply is a device's energy supply. It exists only because policies
// charge NV-write energy through it; the injector itself is the sole source
// of failures, so a token always-on trace suffices and every divergence is
// attributable to the kill point.
func newSupply() *energy.Supply {
	return energy.NewSupply(energy.DefaultDeviceConfig(), energy.ConstantTrace(1, 10, 1))
}

// newDevice builds a fresh device for the target.
func newDevice(t Target, cfg Config) (*device, error) {
	m, c, err := core.NewDevice(t.Program)
	if err != nil {
		return nil, err
	}
	policy := cfg.Policy()
	return &device{m: m, c: c, r: intermittent.NewRunner(c, m, newSupply(), policy), policy: policy}, nil
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

// forkOnto forks the device at its current instruction boundary onto an
// already-synced copy of its memory: the CPU shares the decode cache and
// superblock translation with the trunk, and the policy is duplicated via
// Policy.Fork.
func (d *device) forkOnto(m *mem.Memory) *device {
	c := d.c.Fork(m)
	r := d.r.Fork(c, m, newSupply())
	return &device{m: m, c: c, r: r, policy: r.Policy, cycles: d.cycles, instrs: d.instrs}
}

// runTo advances the device until it halts, reaches the first instruction
// boundary at or past stop (pure CPU cycles), or crosses budget. The loop
// mirrors the batched executor in internal/intermittent: windows are
// bounded by the policy's horizon so overhead charges (watchdog
// checkpoints) land on the exact instruction that charging one instruction
// at a time would pick, the policy advances once per window through
// BatchWindow, and NV-data stores are routed through Step so BeforeStore
// hooks (Clank's violation checkpoints, the undo log) retain full fidelity.
// Stopping at stop, the device has executed exactly the instructions that
// start before it, and instrs counts them.
func (d *device) runTo(stop, budget uint64) error {
	var forceStep bool
	for !d.c.Halted {
		if d.cycles > budget || d.cycles >= stop {
			return nil
		}
		horizon, _ := d.policy.BatchHorizon()
		if forceStep || horizon == 0 {
			// The previous window stopped ahead of an NV-data store, or a
			// checkpoint is due at this exact boundary: take the per-step
			// path so the hook or the checkpoint observes the right state.
			forceStep = false
			cost, err := d.c.Step()
			if err != nil {
				return err
			}
			d.policy.BatchWindow(uint64(cost.Cycles))
			d.cycles += uint64(cost.Cycles)
			d.instrs++
			continue
		}
		win := min(horizon, stop-d.cycles)
		if budget != ^uint64(0) {
			// cycles <= budget here (checked at the top of the loop), so
			// this cannot underflow; +1 lets the window cross the budget
			// line so the overshoot is detected.
			win = min(win, budget-d.cycles+1)
		}
		res, err := d.c.Run(win, nil)
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
