package faultinject

import (
	"cmp"
	"fmt"
	"slices"

	"whatsnext/internal/cpu"
	"whatsnext/internal/intermittent"
	"whatsnext/internal/mem"
)

// RunLockstep executes an injection campaign: one golden run, then one
// forced power failure per scheduled kill point through campaign. Errors
// are infrastructure failures (a program that faults, or that does not
// halt within the golden run's bound even uninterrupted); divergences are
// reported in the Report, not as errors.
func RunLockstep(t Target, cfg Config, sched Schedule) (*Report, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("faultinject: Config.Policy is required")
	}

	// Only an exhaustive schedule needs the golden run's per-instruction
	// boundaries; a strided one needs its length, and the campaign stamps
	// each point's instruction count from the trunk.
	golden, err := goldenRun(t, cfg, nil, sched.Exhaustive, false)
	if err != nil {
		return nil, fmt.Errorf("faultinject: %s: golden run: %w", t.Name, err)
	}
	cfg.Budget = cmp.Or(cfg.Budget, 4*golden.stats.Cycles+65536)

	points := killPoints(golden.costs, golden.stats.Cycles, sched)
	rep := &Report{
		Target:             t.Name,
		Policy:             cfg.Policy().Name(),
		GoldenCycles:       golden.stats.Cycles,
		GoldenInstructions: golden.stats.Instructions,
		Points:             len(points),
	}
	if n := len(points); n > 0 {
		rep.StrideCycles = golden.stats.Cycles / uint64(n)
	}
	err = inject(t, cfg, []*goldenWorld{golden}, nil, points, func(kill killPoint, d *Divergence) {
		rep.Schedule = append(rep.Schedule, kill.cycle)
		if d != nil {
			rep.Divergences = append(rep.Divergences, *d)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("faultinject: %s: %w", t.Name, err)
	}
	return rep, nil
}

// inject is the kill-point engine RunLockstep and CrossValidate drive; the
// tests swap in a from-reset engine as its oracle.
var inject = campaign

// campaign is the kill-point engine shared by RunLockstep and
// CrossValidate. It visits the points in ascending cycle order (stably, so
// points already in that order keep it) and hands visit each one, its
// instruction count stamped from the trunk, together with the divergence
// diff finds against the golden worlds (nil when the run is clean). worlds[0]
// is the uninterrupted run; inputWords, when declared, advance by one on
// each forced failure (CrossValidate's model of an external world that
// moved on while the device was dark) and are masked from the comparison.
//
// Running every injected run from reset would cost O(points x program
// length): each re-executes the prefix up to its kill point and the suffix
// after it, even though the prefix is identical to the golden run by
// construction and the suffix is identical whenever the restore path
// re-converges. The campaign instead batches the points through one shared
// trunk execution and exploits both halves:
//
//   - Prefix sharing: one trunk device executes the golden path once. At
//     each kill boundary the trunk is forked — memory is deep-copied, the
//     CPU shares the trunk's decode cache and superblock translation, and
//     the policy state (checkpoint, undo log) is duplicated — and the
//     forced failure/restore round trip is applied to the fork only. The
//     trunk has executed exactly the instructions that start before the
//     kill cycle, so its instruction count is the point's.
//
//   - Convergence detection: after restore, a checkpointing policy
//     re-executes at most ReplayDistance cycles before it is back at the
//     kill boundary. The fork runs exactly that far; if its architectural
//     state and memory then match the trunk's (which IS the golden state at
//     that boundary), the remainder of the run is deterministic and
//     identical to the golden suffix, so the fork is clean and is
//     discarded without executing it. Only forks that fail to re-converge —
//     actual crash-consistency violations, skim-point jumps, memo-induced
//     cycle drift, a Restart reboot that takes a different path, or
//     advanced inputs — run to halt and are diffed against the golden run.
//
// Outcomes are identical to running each injected run from reset; the
// tests keep that engine as the oracle.
func campaign(t Target, cfg Config, worlds []*goldenWorld, inputWords []uint32,
	points []killPoint, visit func(killPoint, *Divergence)) error {
	points = slices.Clone(points)
	slices.SortStableFunc(points, func(a, b killPoint) int { return cmp.Compare(a.cycle, b.cycle) })
	onKill := advanceInputs(inputWords)

	trunk, err := newRunner(t, cfg)
	if err != nil {
		return fmt.Errorf("trunk: %w", err)
	}
	// Dirty-extent tracking turns per-kill-point fork costs from
	// O(memory size) into O(bytes touched): the first fork deep-copies,
	// and each later kill point re-syncs that same child device by copying
	// only what either side wrote since the previous sync.
	trunk.Mem.SetDirtyTracking(true)
	var child *intermittent.Runner
	for _, kill := range points {
		// Advance the trunk to the first instruction boundary at or past
		// the kill cycle — exactly where a run from reset would force the
		// failure.
		if err := runTo(trunk, kill.cycle, cfg.Budget); err != nil {
			return fmt.Errorf("kill at cycle %d: %w", kill.cycle, err)
		}
		kill.instr = trunk.CPU.Stats.Instructions
		if trunk.CPU.Halted {
			// The boundary at/past this kill cycle is the HALT retirement:
			// no failure is injected and the run trivially matches golden.
			visit(kill, nil)
			continue
		}
		if child == nil {
			trunk.Mem.ResetDirty()
			child = forkOnto(trunk, trunk.Mem.Clone())
		} else {
			child = forkInto(trunk, child)
		}
		converged, err := finish(child, trunk, worlds[0].stats.Cycles, cfg.Budget, onKill)
		if err != nil {
			return fmt.Errorf("kill at cycle %d: %w", kill.cycle, err)
		}
		var div *Divergence
		if !converged {
			if div, err = diff(kill, child, worlds, inputWords); err != nil {
				return fmt.Errorf("kill at cycle %d: %w", kill.cycle, err)
			}
		}
		visit(kill, div)
	}
	return nil
}

// finish applies the forced failure (and onKill) to a freshly forked child
// and drives it to its outcome. It reports true when the child provably
// re-converges with the trunk (final memory identical to golden — clean);
// otherwise the child has run to halt or past the budget, for the caller
// to diff.
func finish(child, trunk *intermittent.Runner, goldenCycles, budget uint64, onKill func(*mem.Memory) error) (bool, error) {
	dist := child.Policy.ReplayDistance()
	child.ForceFailure()
	if onKill != nil {
		if err := onKill(child.Mem); err != nil {
			return false, err
		}
	}

	// The convergence shortcut is only sound comfortably inside the budget:
	// near the line, whether the re-executed run halts before exceeding it
	// depends on sub-window boundaries, so defer to a full run.
	if goldenCycles+dist+cpu.MaxInstrCycles <= budget {
		target := child.CPU.Stats.Cycles + dist
		if err := runTo(child, target, budget); err != nil {
			return false, err
		}
		if !child.CPU.Halted && child.CPU.Stats.Cycles == target && converged(child, trunk) {
			return true, nil
		}
	}
	return false, runTo(child, ^uint64(0), budget)
}

// converged reports whether the child's architectural state and memory
// match the trunk's at the same pure-cycle instruction boundary. Stats,
// tracking shadow state, and policy-internal counters are excluded: they
// affect overhead accounting, never the data a deterministic continuation
// computes. Both memories were byte-identical at the fork's last sync and
// each side has recorded every write since, so comparing the union of the
// two dirty extents is a full state-equality test.
func converged(child, trunk *intermittent.Runner) bool {
	c, tc := child.CPU, trunk.CPU
	if c.Regs != tc.Regs ||
		c.N != tc.N || c.Z != tc.Z || c.C != tc.C || c.V != tc.V ||
		c.SkimArmed != tc.SkimArmed || c.SkimTarget != tc.SkimTarget {
		return false
	}
	return child.Mem.EqualWithin(trunk.Mem, child.Mem.Dirty().Union(trunk.Mem.Dirty()))
}
