package intermittent

import "whatsnext/internal/energy"

// ClankConfig parameterizes the checkpoint-based volatile-processor runtime.
type ClankConfig struct {
	// WatchdogCycles forces a checkpoint after this many active cycles
	// without one (Clank's periodic watchdog interrupt).
	WatchdogCycles uint64
}

// DefaultClankConfig puts the watchdog in the low thousands of cycles.
func DefaultClankConfig() ClankConfig { return ClankConfig{WatchdogCycles: 8192} }

// Clank is the checkpointing volatile-processor policy. All volatile state
// is lost at an outage; execution resumes from the last checkpoint, whose
// placement is governed by idempotency violations and the watchdog.
type Clank struct{ rollback }

// NewClank builds the policy with the given configuration.
func NewClank(cfg ClankConfig) *Clank { return &Clank{rollback{watchdog: cfg.WatchdogCycles}} }

// Name implements Policy.
func (c *Clank) Name() string { return "clank" }

// Attach implements Policy: it enables write-after-read tracking and hooks
// store execution to checkpoint ahead of idempotency violations.
func (c *Clank) Attach(r *Runner) {
	c.r = r
	r.Mem.SetTracking(true)
	r.CPU.BeforeStore = c.beforeStore
	// Initial checkpoint so the first outage has something to restore.
	c.takeCheckpoint()
}

// beforeStore checkpoints ahead of a store that would violate idempotency.
func (c *Clank) beforeStore(addr uint32, size int) {
	if c.r.Mem.WouldViolate(addr, size) {
		c.takeCheckpoint()
	}
}

// takeCheckpoint snapshots volatile state and starts a fresh idempotency
// interval.
func (c *Clank) takeCheckpoint() {
	c.snapshot()
	c.r.Mem.ClearAccessSets()
}

// BatchWindow implements Policy: the watchdog advances by the whole window.
func (c *Clank) BatchWindow(cycles uint64) (first, last energy.Overhead) {
	first = c.drain()
	if c.advance(cycles) {
		c.takeCheckpoint()
		last = c.drain()
	}
	return first, last
}

// OnRestore implements Policy: reload the checkpoint (or take the armed
// skim point) with a fresh idempotency interval.
func (c *Clank) OnRestore() (uint32, float64) {
	c.restore()
	c.r.Mem.ClearAccessSets()
	return restoreCycles, 0
}
