package intermittent

import (
	"fmt"

	"whatsnext/internal/cpu"
)

// runReference is the per-instruction reference loop: one cpu.Step per
// iteration, charged through stepCharge and Supply.Spend. It is the oracle
// RunToHalt's windowed replay must reproduce byte for byte. onStep,
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
		ec, ee := stepCharge(r, cost)
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

// stepCharge is the reference's own per-instruction model of each
// production policy: it advances the policy over the instruction that just
// ran (cost) and returns the overhead that instruction surfaces. It reads
// and drives the policies' watchdog and backup state directly, never
// through BatchHorizon or BatchWindow, so the windowed charge RunToHalt
// uses is checked against an independent account. The test-support
// witnesses (policytest's Naive and Restart) are not subjects of that
// proof; they are charged through one-instruction BatchWindow calls.
func stepCharge(r *Runner, cost cpu.Cost) (uint32, float64) {
	switch p := r.Policy.(type) {
	case rollbackPolicy:
		b := p.core()
		b.since += uint64(cost.Cycles)
		if b.since >= b.watchdog {
			p.takeCheckpoint()
		}
		ec, ee := b.pendingC, b.pendingE
		b.pendingC, b.pendingE = 0, 0
		return ec, ee
	case *NVP:
		return 0, float64(cost.Cycles) * p.cfg.BackupEnergyFactor * r.Supply.Config().EnergyPerCycle
	}
	first, last := r.Policy.BatchWindow(uint64(cost.Cycles))
	return first.Cycles + last.Cycles, first.Energy + last.Energy
}

// rollbackPolicy is a policy built on the rollback core: Clank and UndoLog.
type rollbackPolicy interface {
	core() *rollback
	takeCheckpoint()
}

func (b *rollback) core() *rollback { return b }
