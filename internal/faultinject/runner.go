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

// newSupply is a device's energy supply. It exists only because policies
// charge NV-write energy through it; the injector itself is the sole source
// of failures, so a token always-on trace suffices and every divergence is
// attributable to the kill point.
func newSupply() *energy.Supply {
	return energy.NewSupply(energy.DefaultDeviceConfig(), energy.ConstantTrace(1, 10, 1))
}

// newRunner builds a fresh device for the target under the configured
// runtime. The campaign's trunk is one; each kill point forks it and drives
// the fork to its outcome. A device's position is its CPU's Stats: Cycles
// is the pure CPU cycles executed (the sum of Cost.Cycles), the unit kill
// points are expressed in, and Instructions the instructions executed.
func newRunner(t Target, cfg Config) (*intermittent.Runner, error) {
	m, c, err := core.NewDevice(t.Program)
	if err != nil {
		return nil, err
	}
	return intermittent.NewRunner(c, m, newSupply(), cfg.Policy()), nil
}

// forkInto rebuilds a previously used fork, spare, on top of the trunk's
// current state without a full memory clone: the spare's memory is known to
// match the trunk everywhere outside (spare writes since its sync) ∪
// (trunk writes since that sync), so copying just that union
// re-synchronizes it in O(bytes actually touched). Tracking stamps are not
// copied — the forced failure the caller applies next issues a
// ClearAccessSets, and the spare's epoch only moves forward (its wrap
// scrubs every stamp), so its stale stamps can never read as current.
func forkInto(trunk, spare *intermittent.Runner) *intermittent.Runner {
	ext := spare.Mem.Dirty().Union(trunk.Mem.Dirty())
	spare.Mem.CopyDirty(trunk.Mem, ext)
	spare.Mem.ResetDirty()
	trunk.Mem.ResetDirty()
	return forkOnto(trunk, spare.Mem)
}

// forkOnto forks the trunk at its current instruction boundary onto an
// already-synced copy of its memory: the CPU (Stats included) copies and
// shares the decode cache and superblock translation with the trunk, and
// the policy is duplicated via Policy.Fork.
func forkOnto(trunk *intermittent.Runner, m *mem.Memory) *intermittent.Runner {
	return trunk.Fork(trunk.CPU.Fork(m), m, newSupply())
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
// start before it, and Stats.Instructions counts them.
func runTo(r *intermittent.Runner, stop, budget uint64) error {
	c, st := r.CPU, &r.CPU.Stats
	var forceStep bool
	for !c.Halted {
		if st.Cycles > budget || st.Cycles >= stop {
			return nil
		}
		horizon, _ := r.Policy.BatchHorizon()
		if forceStep || horizon == 0 {
			// The previous window stopped ahead of an NV-data store, or a
			// checkpoint is due at this exact boundary: take the per-step
			// path so the hook or the checkpoint observes the right state.
			forceStep = false
			cost, err := c.Step()
			if err != nil {
				return err
			}
			r.Policy.BatchWindow(uint64(cost.Cycles))
			continue
		}
		win := min(horizon, stop-st.Cycles)
		if budget != ^uint64(0) {
			// Cycles <= budget here (checked at the top of the loop), so
			// this cannot underflow; +1 lets the window cross the budget
			// line so the overshoot is detected.
			win = min(win, budget-st.Cycles+1)
		}
		res, err := c.Run(win, nil)
		r.Policy.BatchWindow(res.Cycles)
		if err != nil {
			return fmt.Errorf("at cycle %d: %w", st.Cycles, err)
		}
		forceStep = res.Reason == cpu.StopStore
	}
	return nil
}
