package faultinject

import (
	"fmt"

	"whatsnext/internal/cpu"
	"whatsnext/internal/energy"
	"whatsnext/internal/mem"
)

// RunLockstep executes an injection campaign: one golden run, then one
// forced power failure per scheduled kill point. Errors are infrastructure
// failures (a program that faults or cannot finish even uninterrupted);
// divergences are reported in the Report, not as errors.
//
// Running every injected run from reset would cost O(points x program
// length): each re-executes the prefix up to its kill point and the suffix
// after it, even though the prefix is identical to the golden run by
// construction and the suffix is identical whenever the restore path
// re-converges. RunLockstep instead batches the schedule through one
// shared trunk execution and exploits both halves:
//
//   - Prefix sharing: one trunk device executes the golden path once. At
//     each kill boundary (visited in ascending order) the trunk is forked —
//     memory is deep-copied, the CPU shares the trunk's decode cache and
//     superblock translation, and the policy state (checkpoint, undo log)
//     is duplicated — and the forced failure/restore round trip is applied
//     to the fork only.
//
//   - Convergence detection: after restore, a checkpointing policy
//     re-executes at most ReplayDistance cycles before it is back at the
//     kill boundary. The fork runs exactly that far; if its architectural
//     state and memory then match the trunk's (which IS the golden state at
//     that boundary), the remainder of the run is deterministic and
//     identical to the golden suffix, so the fork is clean and is
//     discarded without executing it. Only forks that fail to re-converge —
//     actual crash-consistency violations, skim-point jumps, memo-induced
//     cycle drift, or a Restart reboot that takes a different path — run
//     to halt and are diffed against the golden run.
//
// Reports are identical in every field to running each injected run from
// reset; the tests keep that engine as the oracle.
func RunLockstep(t Target, cfg Config, sched Schedule) (*Report, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("faultinject: Config.Policy is required")
	}
	normalize(&cfg)

	var costs []cpu.Cost
	golden, err := runOnce(t, cfg, noKill, ^uint64(0), &costs, nil)
	if err != nil {
		return nil, fmt.Errorf("faultinject: %s: golden run: %w", t.Name, err)
	}
	if !golden.halted {
		return nil, fmt.Errorf("faultinject: %s: golden run did not halt", t.Name)
	}
	if cfg.Budget == 0 {
		cfg.Budget = 4*golden.cycles + 65536
	}

	points := killPoints(costs, golden.cycles, sched)
	rep := &Report{
		Target:             t.Name,
		Policy:             cfg.Policy().Name(),
		GoldenCycles:       golden.cycles,
		GoldenInstructions: golden.instrs,
		Points:             len(points),
	}
	if n := len(points); n > 0 {
		rep.StrideCycles = golden.cycles / uint64(n)
	}

	trunk, err := newDevice(t, cfg)
	if err != nil {
		return nil, fmt.Errorf("faultinject: %s: trunk: %w", t.Name, err)
	}
	// Dirty-extent tracking turns per-kill-point fork costs from
	// O(memory size) into O(bytes touched): the first fork deep-copies,
	// and each later kill point re-syncs that same child device by copying
	// only what either side wrote since the previous sync.
	trunk.m.SetDirtyTracking(true)
	trunk.tracked = true
	var spare *device
	for _, kill := range points {
		rep.Schedule = append(rep.Schedule, kill.cycle)
		// Advance the trunk to the first instruction boundary at or past
		// the kill cycle — exactly where runOnce would force the failure.
		if err := trunk.runTo(kill.cycle, cfg.Budget, nil); err != nil {
			return nil, fmt.Errorf("faultinject: %s: kill at cycle %d: %w", t.Name, kill.cycle, err)
		}
		if trunk.c.Halted {
			// The boundary at/past this kill cycle is the HALT retirement:
			// runOnce never injects and the run trivially matches golden.
			continue
		}
		var child *device
		if spare == nil {
			trunk.m.ResetDirty()
			child = trunk.fork()
		} else {
			child = trunk.forkInto(spare)
		}
		spare = child
		got, err := child.finish(trunk, golden.cycles, cfg.Budget)
		if err != nil {
			return nil, fmt.Errorf("faultinject: %s: kill at cycle %d: %w", t.Name, kill.cycle, err)
		}
		if got == nil {
			continue // re-converged: clean by construction
		}
		if d, diverged := diff(kill, &golden, got); diverged {
			rep.Divergences = append(rep.Divergences, d)
		}
	}
	return rep, nil
}

// normalize fills the Config defaults: the default memory geometry and
// energy device.
func normalize(cfg *Config) {
	if cfg.Mem == (mem.Config{}) {
		cfg.Mem = mem.DefaultConfig()
	}
	if cfg.Device == (energy.DeviceConfig{}) {
		cfg.Device = energy.DefaultDeviceConfig()
	}
}

// finish applies the forced failure to a freshly forked child and resolves
// its outcome. It returns nil when the child provably re-converges with
// the trunk (final memory identical to golden — clean), or the child's
// full run result for the caller to diff.
func (d *device) finish(trunk *device, goldenCycles, budget uint64) (*runResult, error) {
	dist := d.policy.ReplayDistance()
	d.r.ForceFailure()

	// The convergence shortcut is only sound comfortably inside the budget:
	// near the line, whether the re-executed run halts before exceeding it
	// depends on sub-window boundaries, so defer to a full run.
	if goldenCycles+dist+cpu.MaxInstrCycles <= budget {
		target := d.cycles + dist
		if err := d.runTo(target, budget, nil); err != nil {
			return nil, err
		}
		if !d.c.Halted && d.cycles == target && d.converged(trunk) {
			return nil, nil
		}
	}
	if err := d.runTo(noKill, budget, nil); err != nil {
		return nil, err
	}
	res, err := d.result()
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// converged reports whether the child's architectural state and memory
// match the trunk's at the same pure-cycle instruction boundary. Stats,
// tracking shadow state, and policy-internal counters are excluded: they
// affect overhead accounting, never the data a deterministic continuation
// computes.
func (d *device) converged(trunk *device) bool {
	c, tc := d.c, trunk.c
	if c.Regs != tc.Regs ||
		c.N != tc.N || c.Z != tc.Z || c.C != tc.C || c.V != tc.V ||
		c.SkimArmed != tc.SkimArmed || c.SkimTarget != tc.SkimTarget {
		return false
	}
	if d.tracked && trunk.tracked {
		// Both memories were byte-identical at the fork's last sync and each
		// side has recorded every write since, so comparing the union of the
		// two dirty extents is a full state-equality test.
		return d.m.EqualWithin(trunk.m, d.m.Dirty().Union(trunk.m.Dirty()))
	}
	return d.m.StateEqual(trunk.m)
}
