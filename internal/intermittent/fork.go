package intermittent

import (
	"whatsnext/internal/cpu"
	"whatsnext/internal/energy"
	"whatsnext/internal/mem"
)

// Fork duplicates the runner onto an already-cloned device. The caller
// supplies the forked CPU (cpu.Fork), memory (mem.Clone), and a fresh
// supply; the policy is deep-copied via Policy.Fork.
func (r *Runner) Fork(c *cpu.CPU, m *mem.Memory, s *energy.Supply) *Runner {
	n := &Runner{
		CPU:           c,
		Mem:           m,
		Supply:        s,
		MaxCycles:     r.MaxCycles,
		pendingCycles: r.pendingCycles,
		pendingEnergy: r.pendingEnergy,
		skimTaken:     r.skimTaken,
	}
	n.Policy = r.Policy.Fork(n)
	return n
}

// Fork implements Policy: the checkpoint snapshot is a value, so a
// struct copy suffices; only the runner binding and the store hook need
// rebuilding.
func (c *Clank) Fork(r *Runner) Policy {
	n := *c
	n.r = r
	r.CPU.BeforeStore = func(addr uint32, size int) {
		if r.Mem.WouldViolate(addr, size) {
			n.takeCheckpoint()
			n.ViolationCheckpoints++
		}
	}
	return &n
}

// ReplayDistance implements Policy: an outage rewinds to the live
// checkpoint, re-executing everything since it.
func (c *Clank) ReplayDistance() uint64 { return c.sinceCheckpoint }

// Fork implements Policy. NVP keeps no per-run mutable state beyond
// the runner binding.
func (n *NVP) Fork(r *Runner) Policy {
	f := *n
	f.r = r
	r.CPU.BeforeStore = nil
	return &f
}

// ReplayDistance implements Policy: NVP resumes in place.
func (n *NVP) ReplayDistance() uint64 { return 0 }

// Fork implements Policy: the undo log and its dedup set are deep
// copied — the fork's rollback must not be visible to the original.
func (u *UndoLog) Fork(r *Runner) Policy {
	n := *u
	n.r = r
	n.log = append([]undoEntry(nil), u.log...)
	n.logged = make(map[uint32]struct{}, len(u.logged))
	for wa := range u.logged {
		n.logged[wa] = struct{}{}
	}
	r.CPU.BeforeStore = n.beforeStore
	return &n
}

// ReplayDistance implements Policy.
func (u *UndoLog) ReplayDistance() uint64 { return u.sinceCheckpoint }
