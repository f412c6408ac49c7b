// Package policytest holds forward-progress runtimes that exist only as
// test witnesses: Naive, the unsound periodic-checkpointing baseline that
// turns every WAR/RMW hazard into an observable divergence, and Restart,
// the zero-hardware reboot-from-entry runtime that progress-embedded
// builds rely on. Both implement intermittent.Policy from outside the
// package; no binary links them.
package policytest

import (
	"whatsnext/internal/cpu"
	"whatsnext/internal/energy"
	"whatsnext/internal/intermittent"
)

// NaiveConfig parameterizes the naive periodic-checkpointing runtime.
type NaiveConfig struct {
	// WatchdogCycles forces a checkpoint after this many active cycles
	// without one.
	WatchdogCycles uint64
	// CheckpointCycles is the cost of writing the architectural state to
	// non-volatile memory.
	CheckpointCycles uint32
	// CheckpointNVWords is the number of NV words a checkpoint writes,
	// charged at the supply's NV-write energy.
	CheckpointNVWords int
	// RestoreCycles is the cost of reloading state after an outage.
	RestoreCycles uint32
}

// DefaultNaiveConfig uses the same cost figures as Clank with the same
// watchdog period — the only difference between the two policies is the
// missing idempotency-violation detection.
func DefaultNaiveConfig() NaiveConfig {
	return NaiveConfig{
		WatchdogCycles:    8192,
		CheckpointCycles:  40,
		CheckpointNVWords: 17,
		RestoreCycles:     40,
	}
}

// Naive is periodic checkpointing with no memory-access tracking: the
// watchdog is the only checkpoint trigger, and no store is ever inspected
// for write-after-read violations. It is the textbook baseline runtime —
// and, deliberately, an UNSOUND one: a WAR or read-modify-write between two
// checkpoints re-executes against the overwritten value after an outage.
//
// That unsoundness is the point. The certified runtimes (Clank, NVP, the
// undo log) each dynamically repair the WN102/WN106/WN108 hazard classes —
// Clank checkpoints ahead of violating stores, NVP never re-executes, the
// undo log rolls uncommitted writes back — so no injection campaign under
// them can ever witness those rules. Naive is the witness runtime: it
// replays exactly the interval the static analysis reasons about, turning
// every flagged WAR/RMW into an observable memory divergence while still
// executing hazard-free programs correctly.
type Naive struct {
	cfg NaiveConfig
	r   *intermittent.Runner

	checkpoint       cpu.Snapshot // lives in NV memory
	sinceCheckpoint  uint64
	pendingOverheadC uint32
	pendingOverheadE float64

	NumCheckpoints      uint64
	WatchdogCheckpoints uint64
}

// NewNaive builds the policy with the given configuration.
func NewNaive(cfg NaiveConfig) *Naive { return &Naive{cfg: cfg} }

// Name implements Policy.
func (n *Naive) Name() string { return "naive" }

// Checkpoints implements Policy.
func (n *Naive) Checkpoints() uint64 { return n.NumCheckpoints }

// Attach implements Policy. No tracking, no store hook: the initial
// checkpoint is the only preparation.
func (n *Naive) Attach(r *intermittent.Runner) {
	n.r = r
	n.takeCheckpoint()
}

// takeCheckpoint snapshots volatile state into (modeled) non-volatile
// memory and charges the cost via the pending-overhead channel.
func (n *Naive) takeCheckpoint() {
	n.checkpoint = n.r.CPU.Snapshot()
	n.sinceCheckpoint = 0
	n.NumCheckpoints++
	n.pendingOverheadC += n.cfg.CheckpointCycles
	n.pendingOverheadE += float64(n.cfg.CheckpointNVWords) * n.r.Supply.Config().NVWriteEnergy
}

// BatchHorizon implements Policy: the batched executor may run until the
// watchdog would fire.
func (n *Naive) BatchHorizon() (uint64, float64) {
	if n.sinceCheckpoint >= n.cfg.WatchdogCycles {
		return 0, 0
	}
	return n.cfg.WatchdogCycles - n.sinceCheckpoint, 0
}

// BatchWindow implements Policy: the watchdog advances by the whole window.
func (n *Naive) BatchWindow(cycles uint64) (first, last energy.Overhead) {
	first = n.takeOverhead()
	n.sinceCheckpoint += cycles
	if n.sinceCheckpoint >= n.cfg.WatchdogCycles {
		n.takeCheckpoint()
		n.WatchdogCheckpoints++
		last = n.takeOverhead()
	}
	return first, last
}

// takeOverhead drains the pending-overhead accumulators.
func (n *Naive) takeOverhead() energy.Overhead {
	o := energy.Overhead{Cycles: n.pendingOverheadC, Energy: n.pendingOverheadE}
	n.pendingOverheadC, n.pendingOverheadE = 0, 0
	return o
}

// OnOutage implements Policy: volatile state is destroyed.
func (n *Naive) OnOutage() {
	n.r.CPU.PowerLoss()
	n.r.Mem.PowerLoss()
}

// OnRestore implements Policy: reload the checkpoint; if a skim point is
// armed, the restore location becomes the skim target rather than the
// checkpointed PC.
func (n *Naive) OnRestore() (uint32, float64) {
	n.r.CPU.Restore(n.checkpoint)
	n.sinceCheckpoint = 0
	n.r.ConsumeSkim()
	return n.cfg.RestoreCycles, 0
}

// Fork implements Policy.
func (n *Naive) Fork(r *intermittent.Runner) intermittent.Policy {
	f := *n
	f.r = r
	return &f
}

// ReplayDistance implements Policy.
func (n *Naive) ReplayDistance() uint64 { return n.sinceCheckpoint }
