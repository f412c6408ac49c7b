package intermittent

import (
	"whatsnext/internal/energy"
	"whatsnext/internal/mem"
)

// The undo log's parameters, after software undo-logging systems
// (DINO-style): a modest NV log and a watchdog that bounds re-execution.
// Appending an entry reads the old word and writes address and value to the
// NV log.
const (
	undoLogEntries   = 64
	undoLogWatchdog  = 4096
	logEntryCycles   = 6
	logEntryNVWords  = 2
	rollbackWordCost = 2 // cycles to write one logged word back
)

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
// checkpoint only at the watchdog or when the log fills. The watchdog must
// therefore fire well inside the expected outage interval, or a workload
// that touches few distinct words re-executes the same window forever.
type UndoLog struct {
	rollback
	log      []undoEntry // modeled as non-volatile
	logged   map[uint32]struct{}
	capacity int // log entries; a full log forces a checkpoint
}

// NewUndoLog builds the policy.
func NewUndoLog() *UndoLog {
	return &UndoLog{
		rollback: rollback{watchdog: undoLogWatchdog},
		logged:   map[uint32]struct{}{},
		capacity: undoLogEntries,
	}
}

// Name implements Policy.
func (u *UndoLog) Name() string { return "undolog" }

// Attach implements Policy.
func (u *UndoLog) Attach(r *Runner) {
	u.r = r
	r.Mem.SetTracking(false)
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
		if len(u.log) >= u.capacity {
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
		u.pendingC += logEntryCycles
		u.pendingE += float64(logEntryNVWords) * u.r.Supply.Config().NVWriteEnergy
	}
}

// takeCheckpoint snapshots volatile state and truncates the log, making
// current memory the rollback target.
func (u *UndoLog) takeCheckpoint() {
	u.snapshot()
	u.truncate()
}

func (u *UndoLog) truncate() {
	u.log = u.log[:0]
	clear(u.logged)
}

// BatchWindow implements Policy: the watchdog advances by the whole window;
// log appends happen only under the store hook, which the batched executor
// routes through Step.
func (u *UndoLog) BatchWindow(cycles uint64) (first, last energy.Overhead) {
	first = u.drain()
	if u.advance(cycles) {
		u.takeCheckpoint()
		last = u.drain()
	}
	return first, last
}

// OnRestore implements Policy. With a skim point armed, the result is
// taken as-is: the log is truncated without rollback (every committed word
// write is atomic, so memory is a consistent approximate state) and
// execution jumps to the skim target. Otherwise the log is rolled back
// newest-first so re-execution from the register checkpoint observes
// exactly the checkpoint-time memory.
func (u *UndoLog) OnRestore() (uint32, float64) {
	cost := uint32(restoreCycles)
	var rolled int
	if !u.r.CPU.SkimArmed {
		for i := len(u.log) - 1; i >= 0; i-- {
			e := u.log[i]
			// Rollback writes cannot fail: the addresses were valid when
			// logged and memory never shrinks.
			_ = u.r.Mem.StoreWord(e.addr, e.old)
			cost += rollbackWordCost
		}
		rolled = len(u.log)
	}
	u.truncate()
	u.restore()
	return cost, float64(rolled) * u.r.Supply.Config().NVWriteEnergy
}
