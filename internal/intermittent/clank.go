package intermittent

import (
	"whatsnext/internal/cpu"
	"whatsnext/internal/energy"
)

// ClankConfig parameterizes the checkpoint-based volatile-processor runtime.
type ClankConfig struct {
	// WatchdogCycles forces a checkpoint after this many active cycles
	// without one (Clank's periodic watchdog interrupt).
	WatchdogCycles uint64
	// CheckpointCycles is the cost of writing the architectural state
	// (16 registers + flags word) to non-volatile memory.
	CheckpointCycles uint32
	// CheckpointNVWords is the number of NV words a checkpoint writes,
	// charged at the supply's NV-write energy.
	CheckpointNVWords int
	// RestoreCycles is the cost of reloading state after an outage.
	RestoreCycles uint32
}

// DefaultClankConfig mirrors Clank's modest hardware costs: a 17-word
// checkpoint at 2 cycles per NV word plus control overhead, and a watchdog
// in the low thousands of cycles.
func DefaultClankConfig() ClankConfig {
	return ClankConfig{
		WatchdogCycles:    8192,
		CheckpointCycles:  40,
		CheckpointNVWords: 17,
		RestoreCycles:     40,
	}
}

// Clank is the checkpointing volatile-processor policy. All volatile state
// is lost at an outage; execution resumes from the last checkpoint, whose
// placement is governed by idempotency violations and the watchdog.
type Clank struct {
	cfg ClankConfig
	r   *Runner

	checkpoint       cpu.Snapshot // lives in NV memory
	sinceCheckpoint  uint64
	pendingOverheadC uint32
	pendingOverheadE float64

	NumCheckpoints       uint64
	ViolationCheckpoints uint64
	WatchdogCheckpoints  uint64
}

// NewClank builds the policy with the given configuration.
func NewClank(cfg ClankConfig) *Clank { return &Clank{cfg: cfg} }

// Name implements Policy.
func (c *Clank) Name() string { return "clank" }

// Checkpoints implements Policy.
func (c *Clank) Checkpoints() uint64 { return c.NumCheckpoints }

// Attach implements Policy: it enables write-after-read tracking and hooks
// store execution to checkpoint ahead of idempotency violations.
func (c *Clank) Attach(r *Runner) {
	c.r = r
	r.Mem.SetTracking(true)
	r.Mem.ClearAccessSets()
	r.CPU.BeforeStore = func(addr uint32, size int) {
		if r.Mem.WouldViolate(addr, size) {
			c.takeCheckpoint()
			c.ViolationCheckpoints++
		}
	}
	// Initial checkpoint so the first outage has something to restore.
	c.takeCheckpoint()
}

// takeCheckpoint snapshots volatile state into (modeled) non-volatile
// memory and charges the cost via the pending-overhead channel.
func (c *Clank) takeCheckpoint() {
	c.checkpoint = c.r.CPU.Snapshot()
	c.r.Mem.ClearAccessSets()
	c.sinceCheckpoint = 0
	c.NumCheckpoints++
	c.pendingOverheadC += c.cfg.CheckpointCycles
	c.pendingOverheadE += float64(c.cfg.CheckpointNVWords) * c.r.Supply.Config().NVWriteEnergy
}

// BatchHorizon implements Policy: the batched executor may run until the
// watchdog would fire (the checkpoint then lands on the window's final
// instruction, exactly where stepping one instruction at a time puts it).
// Clank charges no per-cycle surcharge.
func (c *Clank) BatchHorizon() (uint64, float64) {
	if c.sinceCheckpoint >= c.cfg.WatchdogCycles {
		return 0, 0
	}
	return c.cfg.WatchdogCycles - c.sinceCheckpoint, 0
}

// BatchWindow implements Policy: the watchdog advances by the whole window.
func (c *Clank) BatchWindow(cycles uint64) (first, last energy.Overhead) {
	first = takeOverhead(&c.pendingOverheadC, &c.pendingOverheadE)
	c.sinceCheckpoint += cycles
	if c.sinceCheckpoint >= c.cfg.WatchdogCycles {
		c.takeCheckpoint()
		c.WatchdogCheckpoints++
		last = takeOverhead(&c.pendingOverheadC, &c.pendingOverheadE)
	}
	return first, last
}

// OnOutage implements Policy: volatile state is destroyed.
func (c *Clank) OnOutage() {
	c.r.CPU.PowerLoss()
	c.r.Mem.PowerLoss()
}

// OnRestore implements Policy: reload the checkpoint; if a skim point is
// armed, the restore location becomes the skim target rather than the
// checkpointed PC.
func (c *Clank) OnRestore() (uint32, float64) {
	c.r.CPU.Restore(c.checkpoint)
	c.r.Mem.ClearAccessSets()
	c.sinceCheckpoint = 0
	c.r.ConsumeSkim()
	return c.cfg.RestoreCycles, 0
}
