package intermittent

import (
	"whatsnext/internal/cpu"
	"whatsnext/internal/energy"
	"whatsnext/internal/mem"
)

// UndoLogConfig parameterizes the undo-logging volatile-processor runtime.
type UndoLogConfig struct {
	// Entries is the non-volatile undo-log capacity in word entries; a
	// full log forces a checkpoint (which truncates it).
	Entries int
	// WatchdogCycles bounds re-execution like Clank's watchdog.
	WatchdogCycles uint64
	// CheckpointCycles / CheckpointNVWords / RestoreCycles as in Clank.
	CheckpointCycles  uint32
	CheckpointNVWords int
	RestoreCycles     uint32
	// LogEntryCycles is the cost of appending one undo entry (read the old
	// word + write addr/value to the NV log).
	LogEntryCycles uint32
	// LogEntryNVWords is the NV write count per appended entry.
	LogEntryNVWords int
}

// DefaultUndoLogConfig mirrors software undo-logging systems (DINO-style):
// a modest NV log and Clank-equivalent checkpoint costs.
func DefaultUndoLogConfig() UndoLogConfig {
	return UndoLogConfig{
		Entries:           64,
		WatchdogCycles:    4096,
		CheckpointCycles:  40,
		CheckpointNVWords: 17,
		RestoreCycles:     40,
		LogEntryCycles:    6,
		LogEntryNVWords:   2,
	}
}

type undoEntry struct {
	addr uint32
	old  uint32
}

// UndoLog is an alternative consistency mechanism for volatile processors:
// instead of checkpointing ahead of idempotency-violating writes (Clank),
// every non-volatile store first records the old word in a non-volatile
// undo log. After an outage the log is rolled back in reverse, returning
// memory to its exact state at the last register checkpoint, and execution
// resumes from there. Skim points are honored identically.
//
// Forward-progress caveat: unlike Clank, whose violation checkpoints fall
// naturally inside read-modify-write loops, the undo log advances its
// checkpoint only at the watchdog or when the log fills. WatchdogCycles
// must therefore be set below the expected outage interval, or a workload
// that touches few distinct words re-executes the same window forever.
type UndoLog struct {
	cfg UndoLogConfig
	r   *Runner

	checkpoint      cpu.Snapshot
	log             []undoEntry // modeled as non-volatile
	logged          map[uint32]struct{}
	sinceCheckpoint uint64
	pendingC        uint32
	pendingE        float64

	NumCheckpoints uint64
	LoggedWords    uint64
	RolledBack     uint64
}

// NewUndoLog builds the policy.
func NewUndoLog(cfg UndoLogConfig) *UndoLog {
	return &UndoLog{cfg: cfg, logged: map[uint32]struct{}{}}
}

// Name implements Policy.
func (u *UndoLog) Name() string { return "undolog" }

// Checkpoints implements Policy.
func (u *UndoLog) Checkpoints() uint64 { return u.NumCheckpoints }

// Attach implements Policy.
func (u *UndoLog) Attach(r *Runner) {
	u.r = r
	r.Mem.SetTracking(false)
	u.log = u.log[:0]
	clear(u.logged)
	r.CPU.BeforeStore = u.beforeStore
	u.takeCheckpoint()
}

// beforeStore appends the old value of every NV word the store covers to
// the undo log (once per word per interval — later stores to the same word
// roll back to the oldest value, which is the checkpoint-time value).
func (u *UndoLog) beforeStore(addr uint32, size int) {
	first := addr &^ 3
	last := (addr + uint32(size) - 1) &^ 3
	for wa := first; wa <= last; wa += 4 {
		if wa < mem.DataBase || wa >= mem.DataBase+uint32(u.r.Mem.Config().DataBytes) {
			continue
		}
		if _, dup := u.logged[wa]; dup {
			continue
		}
		if len(u.log) >= u.cfg.Entries {
			// Log full: checkpoint truncates it, making current memory the
			// new rollback target.
			u.takeCheckpoint()
		}
		old, err := u.r.Mem.LoadWord(wa)
		if err != nil {
			continue // the store itself will fault and surface the error
		}
		u.log = append(u.log, undoEntry{addr: wa, old: old})
		u.logged[wa] = struct{}{}
		u.LoggedWords++
		u.pendingC += u.cfg.LogEntryCycles
		u.pendingE += float64(u.cfg.LogEntryNVWords) * u.r.Supply.Config().NVWriteEnergy
	}
}

func (u *UndoLog) takeCheckpoint() {
	u.checkpoint = u.r.CPU.Snapshot()
	u.log = u.log[:0]
	clear(u.logged)
	u.sinceCheckpoint = 0
	u.NumCheckpoints++
	u.pendingC += u.cfg.CheckpointCycles
	u.pendingE += float64(u.cfg.CheckpointNVWords) * u.r.Supply.Config().NVWriteEnergy
}

// BatchHorizon implements Policy: like Clank, the watchdog bounds a batch;
// log appends happen only under the store hook, which the batched executor
// routes through Step.
func (u *UndoLog) BatchHorizon() (uint64, float64) {
	if u.sinceCheckpoint >= u.cfg.WatchdogCycles {
		return 0, 0
	}
	return u.cfg.WatchdogCycles - u.sinceCheckpoint, 0
}

// BatchWindow implements Policy: the watchdog advances by the whole window.
func (u *UndoLog) BatchWindow(cycles uint64) (first, last energy.Overhead) {
	first = takeOverhead(&u.pendingC, &u.pendingE)
	u.sinceCheckpoint += cycles
	if u.sinceCheckpoint >= u.cfg.WatchdogCycles {
		u.takeCheckpoint()
		last = takeOverhead(&u.pendingC, &u.pendingE)
	}
	return first, last
}

// OnOutage implements Policy: volatile state is lost; the NV undo log
// survives.
func (u *UndoLog) OnOutage() {
	u.r.CPU.PowerLoss()
	u.r.Mem.PowerLoss()
}

// OnRestore implements Policy. With a skim point armed, the result is
// taken as-is: the log is truncated without rollback (every committed word
// write is atomic, so memory is a consistent approximate state) and
// execution jumps to the skim target. Otherwise the log is rolled back
// newest-first so re-execution from the register checkpoint observes
// exactly the checkpoint-time memory.
func (u *UndoLog) OnRestore() (uint32, float64) {
	cost := u.cfg.RestoreCycles
	var rolled int
	if u.r.CPU.SkimArmed {
		u.r.CPU.Restore(u.checkpoint)
		u.r.ConsumeSkim()
	} else {
		for i := len(u.log) - 1; i >= 0; i-- {
			e := u.log[i]
			// Rollback writes cannot fail: the addresses were valid when
			// logged and memory never shrinks.
			_ = u.r.Mem.StoreWord(e.addr, e.old)
			u.RolledBack++
			cost += 2
		}
		rolled = len(u.log)
		u.r.CPU.Restore(u.checkpoint)
	}
	u.log = u.log[:0]
	clear(u.logged)
	u.sinceCheckpoint = 0
	return cost, float64(rolled) * u.r.Supply.Config().NVWriteEnergy
}
