package faultinject

import (
	"fmt"

	"whatsnext/internal/cpu"
)

// runNaive is the reference injection engine: one golden run, then one
// injected run from reset per scheduled kill point. RunLockstep must
// produce an identical Report in every field.
func runNaive(t Target, cfg Config, sched Schedule) (*Report, error) {
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

	for _, kill := range points {
		rep.Schedule = append(rep.Schedule, kill.cycle)
		got, err := runOnce(t, cfg, kill.cycle, cfg.Budget, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("faultinject: %s: kill at cycle %d: %w", t.Name, kill.cycle, err)
		}
		if d, diverged := diff(kill, &golden, &got); diverged {
			rep.Divergences = append(rep.Divergences, d)
		}
	}
	return rep, nil
}
