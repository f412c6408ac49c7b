package intermittent

import (
	"testing"

	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
)

// undoHarness builds a powered device with an UndoLog policy attached and
// no program beyond HALT: the tests below drive the policy hooks directly
// to pin down the log's edge-case semantics.
func undoHarness(t *testing.T) (*UndoLog, *Runner) {
	t.Helper()
	u := NewUndoLog()
	r := buildDevice(t, "\tHALT\n", u, ample())
	return u, r
}

// restoredWords is how many logged words the last forced failure wrote
// back, read off the restore cost it charged.
func restoredWords(r *Runner) uint32 {
	return (r.pendingCycles - restoreCycles) / rollbackWordCost
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
	u, r := undoHarness(t)
	addr := uint32(mem.DataBase)
	mustStore(t, r.Mem, addr, 111)

	u.beforeStore(addr, 4)
	mustStore(t, r.Mem, addr, 222)
	u.beforeStore(addr, 4)
	mustStore(t, r.Mem, addr, 333)

	if len(u.log) != 1 {
		t.Fatalf("log holds %d entries, want 1 (second add of the same word is a no-op)", len(u.log))
	}
	// A forced power failure rolls the word back to the checkpoint-time
	// value exactly once.
	r.ForceFailure()
	if got := mustLoad(t, r.Mem, addr); got != 111 {
		t.Fatalf("after rollback word = %d, want the checkpoint-time 111", got)
	}
	if n := restoredWords(r); n != 1 {
		t.Fatalf("restore wrote back %d words, want 1", n)
	}
}

// Filling the log forces a checkpoint, which commits everything logged so
// far: only words touched after the forced checkpoint roll back.
func TestUndoLogCapacityOverflow(t *testing.T) {
	u, r := undoHarness(t)
	u.capacity = 2
	a, b, c := uint32(mem.DataBase), uint32(mem.DataBase+4), uint32(mem.DataBase+8)
	mustStore(t, r.Mem, a, 1)
	mustStore(t, r.Mem, b, 2)
	mustStore(t, r.Mem, c, 3)

	u.beforeStore(a, 4)
	mustStore(t, r.Mem, a, 10)
	u.beforeStore(b, 4)
	mustStore(t, r.Mem, b, 20)
	if n := u.Checkpoints(); n != 1 { // the Attach-time checkpoint only
		t.Fatalf("Checkpoints = %d before overflow, want 1", n)
	}

	u.beforeStore(c, 4) // log is full: forces a checkpoint, then logs c
	mustStore(t, r.Mem, c, 30)
	if n := u.Checkpoints(); n != 2 {
		t.Fatalf("Checkpoints = %d after overflow, want 2", n)
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
	if n := restoredWords(r); n != 1 {
		t.Errorf("restore wrote back %d words, want 1 (only the post-checkpoint word)", n)
	}
}

// A watchdog checkpoint truncates the log: an outage after it must not
// undo writes the checkpoint already committed.
func TestUndoLogWipeOnCheckpoint(t *testing.T) {
	u, r := undoHarness(t)
	u.watchdog = 100
	addr := uint32(mem.DataBase)
	mustStore(t, r.Mem, addr, 7)

	u.beforeStore(addr, 4)
	mustStore(t, r.Mem, addr, 70)
	u.BatchWindow(200) // trips the watchdog: checkpoint + wipe
	if n := u.Checkpoints(); n != 2 {
		t.Fatalf("Checkpoints = %d, want 2 (attach + watchdog)", n)
	}

	r.ForceFailure()
	if got := mustLoad(t, r.Mem, addr); got != 70 {
		t.Fatalf("word = %d, want 70 (the watchdog checkpoint committed it)", got)
	}
	if n := restoredWords(r); n != 0 {
		t.Fatalf("restore wrote back %d words, want 0 (log was wiped by the checkpoint)", n)
	}
}

// With a skim point armed, restore truncates the log without rollback and
// resumes at the skim target: the approximate result is taken as-is.
func TestUndoLogSkimTruncates(t *testing.T) {
	u, r := undoHarness(t)
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
	if n := restoredWords(r); n != 0 {
		t.Fatalf("restore wrote back %d words, want 0", n)
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
