package intermittent

import (
	"whatsnext/internal/cpu"
	"whatsnext/internal/energy"
)

// The rollback runtimes' hardware costs: a checkpoint writes the 16
// registers and the flags word (17 NV words at 2 cycles each plus control
// overhead), and a restore reloads them.
const (
	checkpointCycles  = 40
	checkpointNVWords = 17
	restoreCycles     = 40
)

// rollback is the machine Clank and the undo log share: a register
// checkpoint in NV memory, a watchdog that forces a new one every watchdog
// active cycles, a pending-overhead channel through which checkpoint costs
// reach the supply, and restore-then-replay after an outage. The two differ
// only in how they keep NV stores safe to replay, so each embeds one and
// supplies its own takeCheckpoint, which resets that state after
// snapshot. Each policy calls its own takeCheckpoint rather than the core
// calling back through a stored function, because Fork copies the policy by
// value and a stored callback would still point at the parent.
type rollback struct {
	r          *Runner
	checkpoint cpu.Snapshot // lives in NV memory
	since      uint64       // CPU cycles executed since the checkpoint
	watchdog   uint64
	pendingC   uint32
	pendingE   float64
	count      uint64
}

// snapshot takes the register checkpoint and charges its cost through the
// pending-overhead channel.
func (b *rollback) snapshot() {
	b.checkpoint = b.r.CPU.Snapshot()
	b.since = 0
	b.count++
	b.pendingC += checkpointCycles
	b.pendingE += float64(checkpointNVWords) * b.r.Supply.Config().NVWriteEnergy
}

// restore reloads the checkpoint after an outage; if a skim point is armed,
// the restore location becomes the skim target rather than the checkpointed
// PC.
func (b *rollback) restore() {
	b.r.CPU.Restore(b.checkpoint)
	b.since = 0
	b.r.ConsumeSkim()
}

// advance moves the watchdog over a window of cycles and reports whether it
// has fired, so the caller takes its checkpoint on the window's final
// instruction.
func (b *rollback) advance(cycles uint64) bool {
	b.since += cycles
	return b.since >= b.watchdog
}

// drain takes the pending overhead.
func (b *rollback) drain() energy.Overhead {
	o := energy.Overhead{Cycles: b.pendingC, Energy: b.pendingE}
	b.pendingC, b.pendingE = 0, 0
	return o
}

// Checkpoints implements Policy.
func (b *rollback) Checkpoints() uint64 { return b.count }

// BatchHorizon implements Policy: the batched executor may run until the
// watchdog would fire (the checkpoint then lands on the window's final
// instruction, exactly where stepping one instruction at a time puts it).
// Rollback charges no per-cycle surcharge.
func (b *rollback) BatchHorizon() (uint64, float64) {
	if b.since >= b.watchdog {
		return 0, 0
	}
	return b.watchdog - b.since, 0
}

// OnOutage implements Policy: volatile state is destroyed.
func (b *rollback) OnOutage() {
	b.r.CPU.PowerLoss()
	b.r.Mem.PowerLoss()
}

// ReplayDistance implements Policy: an outage rewinds to the live
// checkpoint, re-executing everything since it.
func (b *rollback) ReplayDistance() uint64 { return b.since }
