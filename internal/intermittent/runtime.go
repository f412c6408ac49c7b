// Package intermittent implements the two forward-progress runtimes the
// paper evaluates WN on:
//
//   - Clank: a checkpoint-based volatile processor. Volatile register state
//     is checkpointed to non-volatile memory when a watchdog interval
//     expires or when a store is about to violate idempotency (write-after-
//     read to non-volatile data since the last checkpoint). After a power
//     outage the core restores the last checkpoint and re-executes.
//
//   - NVP: a non-volatile processor that backs up its architectural state
//     every cycle (modeled as a per-cycle energy surcharge). After an
//     outage it resumes in place with no re-execution.
//
// Both runtimes honor skim points: if the non-volatile skim register was
// armed by an SKM instruction, the restore path jumps to the armed target —
// decoupling the backup location from the restore location — so the
// application takes its current approximate result as-is and moves on.
package intermittent

import (
	"errors"
	"fmt"

	"whatsnext/internal/cpu"
	"whatsnext/internal/energy"
	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
)

// Policy is a forward-progress runtime strategy.
//
// RunToHalt charges a policy per window of instructions through
// BatchHorizon and BatchWindow; a one-instruction window is the
// per-instruction charge. The tests keep their own per-instruction model of
// each policy as the oracle for the windowed one. Fork and ReplayDistance
// serve the lockstep fault injector.
type Policy interface {
	// Name identifies the policy ("clank", "nvp").
	Name() string
	// Attach binds the policy to a device and resets its state.
	Attach(r *Runner)
	// OnOutage handles a brown-out.
	OnOutage()
	// OnRestore handles power returning; it must leave the CPU ready to
	// execute and report the restore overhead.
	OnRestore() (extraCycles uint32, extraEnergy float64)
	// Checkpoints returns how many checkpoints the policy has taken.
	Checkpoints() uint64
	// BatchHorizon reports the constraints under which the batched executor
	// may run without per-instruction policy observation. No event that
	// inspects CPU state (a watchdog checkpoint) may fall due before the
	// final instruction of a window of at most `cycles` cycles. Each
	// instruction of c cycles in the window draws a backup surcharge of
	// c*backup*EnergyPerCycle joules, evaluated in that order, on top of
	// its own cost. A zero horizon forces the runner to single-step.
	BatchHorizon() (cycles uint64, backup float64)
	// BatchWindow advances the policy over a window of instructions that
	// ran `cycles` CPU cycles in total, leaving it as charging each of them
	// in turn would. It returns the overhead the window surfaces: first was
	// pending before the window and rides on its first instruction; last, a
	// watchdog checkpoint, falls due on its final one.
	BatchWindow(cycles uint64) (first, last energy.Overhead)
	// Fork returns an independent deep copy bound to r, a runner over an
	// already-forked device: its checkpoint snapshot, undo log, counters,
	// and store hook must no longer alias the original's. Fork must NOT
	// re-run Attach side effects (initial checkpoint, access-set clearing):
	// the forked device continues mid-run, and the cloned memory already
	// carries the tracking state the policy expects.
	Fork(r *Runner) Policy
	// ReplayDistance reports how much re-execution an outage at the
	// current instruction boundary costs, in pure CPU cycles (the sum of
	// Cost.Cycles since the instruction the restore path resumes at).
	// Checkpointing policies return the distance back to their live
	// checkpoint; an in-place resume (NVP) returns 0. The lockstep injector
	// runs a forked device this far before comparing it with the trunk; a
	// fork that has not re-converged there runs to halt and is diffed, so
	// the value bounds the work, never the verdict.
	ReplayDistance() uint64
}

// Result summarizes a run to completion.
type Result struct {
	Halted       bool
	SkimTaken    bool   // run ended via a skim-point jump
	CyclesOn     uint64 // active execution cycles (incl. runtime overhead)
	CyclesOff    uint64 // cycles spent waiting for recharge
	Instructions uint64
	Outages      uint64
	Checkpoints  uint64
	EnergyDrawn  float64
}

// TotalCycles is wall-clock completion time in cycles.
func (r Result) TotalCycles() uint64 { return r.CyclesOn + r.CyclesOff }

// ErrOutOfPower reports that the harvest trace can no longer recharge the
// device (e.g. a zero-power tail).
var ErrOutOfPower = errors.New("intermittent: supply cannot recharge to V_on")

// ErrCycleBudget reports that the run exceeded its safety cycle budget.
var ErrCycleBudget = errors.New("intermittent: cycle budget exhausted (runaway program?)")

// Runner drives a CPU over a Supply under a Policy until the program halts.
type Runner struct {
	CPU    *cpu.CPU
	Mem    *mem.Memory
	Supply *energy.Supply
	Policy Policy

	// MaxCycles bounds total active cycles as a runaway guard; zero means
	// a generous default (2^40).
	MaxCycles uint64

	pendingCycles uint32
	pendingEnergy float64
	skimTaken     bool
}

// NewRunner wires a device together and attaches the policy.
func NewRunner(c *cpu.CPU, m *mem.Memory, s *energy.Supply, p Policy) *Runner {
	r := &Runner{CPU: c, Mem: m, Supply: s, Policy: p}
	p.Attach(r)
	return r
}

// ConsumeSkim applies an armed skim point: the restore path jumps to the
// armed target instead of the checkpoint PC (Section III-C), and the run's
// Result reports SkimTaken. It is the skim contract every Policy honours
// from OnRestore, including policies defined outside this package.
func (r *Runner) ConsumeSkim() {
	if r.CPU.SkimArmed {
		r.CPU.Regs[isa.PC] = r.CPU.SkimTarget
		r.CPU.DisarmSkim()
		r.skimTaken = true
	}
}

// ForceFailure drives the policy through one full power-failure /
// restore round trip at the current instruction boundary, bypassing the
// supply model. The fault injector uses it to kill power at an exact
// cycle regardless of how much harvested energy the trace would have
// delivered. Restore overheads accumulate like any other policy charge
// and are applied on the next executed instruction.
func (r *Runner) ForceFailure() {
	r.Policy.OnOutage()
	ec, ee := r.Policy.OnRestore()
	r.pendingCycles += ec
	r.pendingEnergy += ee
}

// Batched-executor window sizing. batchSlack keeps a window clear of the
// brown-out threshold: cpu.Run overshoots its budget by less than
// cpu.MaxInstrCycles, and the window's first instruction may carry one
// pending checkpoint (~40 cycles plus 17 NV-word writes) accrued just
// before the window. 64 cycles of worst-case drain covers both with
// margin, so only a window's final instruction can brown out. minBatch is
// the smallest window worth entering the batched executor for; below it
// the runner single-steps.
const (
	batchSlack = 64
	minBatch   = 96
)

// RunToHalt executes until HALT, riding through power outages per the
// policy. The caller is responsible for loading the program, installing
// inputs and resetting the CPU beforehand.
//
// The CPU runs uninterrupted cpu.Run windows sized so that no checkpoint,
// brown-out, or cycle-budget event can fall strictly inside a window, and
// each window is charged once: Policy.BatchWindow advances the policy over
// the whole window and Supply.SpendRun replays the recorded
// per-instruction costs through the same float expressions, in the same
// order, as charging the policy and calling Spend per instruction would.
// Every energy draw, harvest charge, checkpoint and outage therefore lands
// on the same instruction boundary with the same floating-point values as a
// loop that steps and charges one instruction at a time; the tests keep
// such a loop as the oracle. Steps taken near a checkpoint or brown-out boundary, and
// stores that need the BeforeStore hook, go through the same path as
// one-instruction windows.
func (r *Runner) RunToHalt() (Result, error) {
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

	cfg := r.Supply.Config()
	costs := make([]cpu.Cost, 0, 4096)

	// replay charges the executed window in costs, which ran cycles CPU
	// cycles, to the policy and the supply.
	replay := func(cycles uint64, backup float64) error {
		first, last := r.Policy.BatchWindow(cycles)
		n, ok := r.Supply.SpendRun(costs, backup, first, last)
		switch {
		case ok:
			return nil
		case n < len(costs):
			return fmt.Errorf("intermittent: internal error: brown-out at instruction %d of a %d-instruction window", n, len(costs))
		}
		return outage()
	}

	forceStep := false
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

		// Size a window in which nothing can interrupt the batch: the
		// policy's horizon (cycles until a watchdog checkpoint may fire),
		// the energy headroom under worst-case drain (no brown-out before
		// the window's final instruction), and the runaway budget
		// (ErrCycleBudget fires at the same instruction as when stepping).
		horizon, backup := r.Policy.BatchHorizon()
		var budget uint64
		if !forceStep {
			if horizon > 0 {
				drain := cfg.EnergyPerCycle + cfg.NVWriteEnergy + backup*cfg.EnergyPerCycle
				nSafe := uint64(r.Supply.Headroom() / drain)
				if nSafe > minBatch+batchSlack {
					budget = nSafe - batchSlack
					if horizon < budget {
						budget = horizon
					}
				}
			}
			if remaining := maxCycles - (r.Supply.CyclesOn - startOn); budget > remaining+1 {
				budget = remaining + 1
			}
		}
		forceStep = false

		costs = costs[:0]
		if budget < minBatch {
			// Too close to a brown-out or checkpoint boundary, or the next
			// instruction needs the store hook: take one step so hooks and
			// outages land on the exact instruction.
			cost, err := r.CPU.Step()
			if err != nil {
				return r.result(startOn, startOff, startOut, startDrawn, startInst), fmt.Errorf("intermittent: fault: %w", err)
			}
			costs = append(costs, cost)
			if err := replay(uint64(cost.Cycles), backup); err != nil {
				return r.result(startOn, startOff, startOut, startDrawn, startInst), err
			}
			continue
		}

		batch, err := r.CPU.Run(budget, &costs)
		// Replay first: the instructions before a fault (or a StopStore /
		// StopSkim boundary) executed and must pay energy in order.
		if len(costs) > 0 {
			if rerr := replay(batch.Cycles, backup); rerr != nil {
				return r.result(startOn, startOff, startOut, startDrawn, startInst), rerr
			}
		}
		if err != nil {
			return r.result(startOn, startOff, startOut, startDrawn, startInst), fmt.Errorf("intermittent: fault: %w", err)
		}
		// A store that needs the BeforeStore hook is executed through Step
		// on the next iteration, after the usual top-of-loop housekeeping.
		forceStep = batch.Reason == cpu.StopStore
	}
	return r.result(startOn, startOff, startOut, startDrawn, startInst), nil
}

// takeOverhead drains a policy's pending-overhead accumulators.
func takeOverhead(cycles *uint32, joules *float64) energy.Overhead {
	o := energy.Overhead{Cycles: *cycles, Energy: *joules}
	*cycles, *joules = 0, 0
	return o
}

func (r *Runner) result(startOn, startOff, startOut uint64, startDrawn float64, startInst uint64) Result {
	return Result{
		Halted:       r.CPU.Halted,
		SkimTaken:    r.skimTaken,
		CyclesOn:     r.Supply.CyclesOn - startOn,
		CyclesOff:    r.Supply.CyclesOff - startOff,
		Instructions: r.CPU.Stats.Instructions - startInst,
		Outages:      r.Supply.Outages - startOut,
		Checkpoints:  r.Policy.Checkpoints(),
		EnergyDrawn:  r.Supply.EnergyDrawn - startDrawn,
	}
}
