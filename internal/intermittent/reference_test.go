package intermittent

import "fmt"

// runReference is the per-instruction reference loop: one cpu.Step per
// iteration, charged through Policy.AfterStep and Supply.Spend. It is the
// oracle RunToHalt's windowed replay must reproduce byte for byte. onStep,
// when non-nil, runs after every instruction with the running active-cycle
// count; tests use it to force outages at exact instructions.
func runReference(r *Runner, onStep func(cyclesOn uint64)) (Result, error) {
	maxCycles := r.MaxCycles
	if maxCycles == 0 {
		maxCycles = 1 << 40
	}
	r.skimTaken = false

	startOn := r.Supply.CyclesOn
	startOff := r.Supply.CyclesOff
	startOut := r.Supply.Outages
	startDrawn := r.Supply.EnergyDrawn
	startInst := r.CPU.Stats.Instructions

	outage := func() error {
		r.Policy.OnOutage()
		if _, ok := r.Supply.WaitForPower(); !ok {
			return ErrOutOfPower
		}
		ec, ee := r.Policy.OnRestore()
		r.pendingCycles += ec
		r.pendingEnergy += ee
		return nil
	}

	for !r.CPU.Halted {
		if r.Supply.CyclesOn-startOn > maxCycles {
			return r.result(startOn, startOff, startOut, startDrawn, startInst), ErrCycleBudget
		}
		// Pay pending runtime overhead (restore costs) first.
		if r.pendingCycles > 0 || r.pendingEnergy > 0 {
			pc, pe := r.pendingCycles, r.pendingEnergy
			r.pendingCycles, r.pendingEnergy = 0, 0
			if !r.Supply.Spend(pc, pe) {
				if err := outage(); err != nil {
					return r.result(startOn, startOff, startOut, startDrawn, startInst), err
				}
				continue
			}
		}
		cost, err := r.CPU.Step()
		if err != nil {
			return r.result(startOn, startOff, startOut, startDrawn, startInst), fmt.Errorf("intermittent: fault: %w", err)
		}
		ec, ee := r.Policy.AfterStep(cost)
		nvEnergy := float64(cost.NVWrites) * r.Supply.Config().NVWriteEnergy
		ok := r.Supply.Spend(cost.Cycles+ec, nvEnergy+ee)
		if onStep != nil {
			onStep(r.Supply.CyclesOn - startOn)
		}
		if !ok {
			if err := outage(); err != nil {
				return r.result(startOn, startOff, startOut, startDrawn, startInst), err
			}
		}
	}
	return r.result(startOn, startOff, startOut, startDrawn, startInst), nil
}
