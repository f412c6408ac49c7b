package intermittent

import (
	"testing"

	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
)

// undoHarness builds a powered device with an UndoLog policy attached and
// no program beyond HALT: the tests below drive the policy hooks directly
// to pin down the log's edge-case semantics.
func undoHarness(t *testing.T, cfg UndoLogConfig) (*UndoLog, *Runner) {
	t.Helper()
	u := NewUndoLog(cfg)
	r := buildDevice(t, "\tHALT\n", u, ample())
	return u, r
}

func mustStore(t *testing.T, m *mem.Memory, addr, v uint32) {
	t.Helper()
	if err := m.StoreWord(addr, v); err != nil {
		t.Fatal(err)
	}
}

func mustLoad(t *testing.T, m *mem.Memory, addr uint32) uint32 {
	t.Helper()
	v, err := m.LoadWord(addr)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// A second store to an already-logged word must not append a second entry:
// rollback targets the checkpoint-time value, not intermediate ones.
func TestUndoLogDoubleAdd(t *testing.T) {
	u, r := undoHarness(t, DefaultUndoLogConfig())
	addr := uint32(mem.DataBase)
	mustStore(t, r.Mem, addr, 111)

	u.beforeStore(addr, 4)
	mustStore(t, r.Mem, addr, 222)
	u.beforeStore(addr, 4)
	mustStore(t, r.Mem, addr, 333)

	if u.LoggedWords != 1 {
		t.Fatalf("LoggedWords = %d, want 1 (second add of the same word is a no-op)", u.LoggedWords)
	}
	// A forced power failure rolls the word back to the checkpoint-time
	// value exactly once.
	r.ForceFailure()
	if got := mustLoad(t, r.Mem, addr); got != 111 {
		t.Fatalf("after rollback word = %d, want the checkpoint-time 111", got)
	}
	if u.RolledBack != 1 {
		t.Fatalf("RolledBack = %d, want 1", u.RolledBack)
	}
}

// Filling the log forces a checkpoint, which commits everything logged so
// far: only words touched after the forced checkpoint roll back.
func TestUndoLogCapacityOverflow(t *testing.T) {
	cfg := DefaultUndoLogConfig()
	cfg.Entries = 2
	u, r := undoHarness(t, cfg)
	a, b, c := uint32(mem.DataBase), uint32(mem.DataBase+4), uint32(mem.DataBase+8)
	mustStore(t, r.Mem, a, 1)
	mustStore(t, r.Mem, b, 2)
	mustStore(t, r.Mem, c, 3)

	u.beforeStore(a, 4)
	mustStore(t, r.Mem, a, 10)
	u.beforeStore(b, 4)
	mustStore(t, r.Mem, b, 20)
	if u.NumCheckpoints != 1 { // the Attach-time checkpoint only
		t.Fatalf("NumCheckpoints = %d before overflow, want 1", u.NumCheckpoints)
	}

	u.beforeStore(c, 4) // log is full: forces a checkpoint, then logs c
	mustStore(t, r.Mem, c, 30)
	if u.NumCheckpoints != 2 {
		t.Fatalf("NumCheckpoints = %d after overflow, want 2", u.NumCheckpoints)
	}

	r.ForceFailure()
	if got := mustLoad(t, r.Mem, a); got != 10 {
		t.Errorf("word a = %d, want 10 (committed by the forced checkpoint)", got)
	}
	if got := mustLoad(t, r.Mem, b); got != 20 {
		t.Errorf("word b = %d, want 20 (committed by the forced checkpoint)", got)
	}
	if got := mustLoad(t, r.Mem, c); got != 3 {
		t.Errorf("word c = %d, want 3 (rolled back)", got)
	}
	if u.RolledBack != 1 {
		t.Errorf("RolledBack = %d, want 1 (only the post-checkpoint word)", u.RolledBack)
	}
}

// A watchdog checkpoint truncates the log: an outage after it must not
// undo writes the checkpoint already committed.
func TestUndoLogWipeOnCheckpoint(t *testing.T) {
	cfg := DefaultUndoLogConfig()
	cfg.WatchdogCycles = 100
	u, r := undoHarness(t, cfg)
	addr := uint32(mem.DataBase)
	mustStore(t, r.Mem, addr, 7)

	u.beforeStore(addr, 4)
	mustStore(t, r.Mem, addr, 70)
	u.BatchWindow(200) // trips the watchdog: checkpoint + wipe
	if u.NumCheckpoints != 2 {
		t.Fatalf("NumCheckpoints = %d, want 2 (attach + watchdog)", u.NumCheckpoints)
	}

	r.ForceFailure()
	if got := mustLoad(t, r.Mem, addr); got != 70 {
		t.Fatalf("word = %d, want 70 (the watchdog checkpoint committed it)", got)
	}
	if u.RolledBack != 0 {
		t.Fatalf("RolledBack = %d, want 0 (log was wiped by the checkpoint)", u.RolledBack)
	}
}

// With a skim point armed, restore truncates the log without rollback and
// resumes at the skim target: the approximate result is taken as-is.
func TestUndoLogSkimTruncates(t *testing.T) {
	u, r := undoHarness(t, DefaultUndoLogConfig())
	addr := uint32(mem.DataBase)
	mustStore(t, r.Mem, addr, 5)

	u.beforeStore(addr, 4)
	mustStore(t, r.Mem, addr, 50)
	r.CPU.SkimArmed = true
	r.CPU.SkimTarget = 0x40

	r.ForceFailure()
	if got := mustLoad(t, r.Mem, addr); got != 50 {
		t.Fatalf("word = %d, want 50 (skim restore must not roll back)", got)
	}
	if u.RolledBack != 0 {
		t.Fatalf("RolledBack = %d, want 0", u.RolledBack)
	}
	if pc := r.CPU.Regs[isa.PC]; pc != 0x40 {
		t.Fatalf("PC = %#x, want the skim target 0x40", pc)
	}
	// The log was truncated: a later plain outage rolls back nothing.
	r.ForceFailure()
	if got := mustLoad(t, r.Mem, addr); got != 50 {
		t.Fatalf("word = %d after second failure, want 50 (log was truncated)", got)
	}
}
