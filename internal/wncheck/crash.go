package wncheck

import (
	"sort"
	"strings"

	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
)

// Crash-consistency analysis (Options.Crash): the failure-atomicity tier on
// top of the single-run dataflow checks.
//
// The runtimes in internal/intermittent make non-volatile data
// failure-atomic between commit boundaries: Clank checkpoints ahead of
// idempotency-violating stores, the undo log rolls uncommitted NV writes
// back, and NVP never re-executes at all. Volatile SRAM enjoys no such
// boundary — mem.PowerLoss wipes it on every outage, register checkpoints
// do not cover it, and nothing restores it — so a value that crosses an
// instruction boundary through SRAM is corrupted by an outage at that
// boundary under every runtime model (WN103). The second hazard class is
// the skim-resume path: an outage while a skim point is armed restores
// registers from the checkpoint (Clank, undo log) or the interruption
// point (NVP) and then jumps to the skim target, so registers the target
// path consumes carry restore-time values, not the fall-through values
// (WN104).
//
// Both findings name the vulnerable interval (Diagnostic.RegionStart ..
// RegionEnd); internal/faultinject is the dynamic oracle that turns each
// into a witnessed divergence by killing power inside that interval.

// stepCrash extends the forward transfer function with volatile-crossing
// tracking. Called from step for every load/store whose effective address
// resolved statically, only when Options.Crash is set.
func (c *checker) stepCrash(s *dfState, idx int, in isa.Instruction, addr uint32, size int, check bool) {
	sramEnd := uint32(mem.SRAMBase) + uint32(c.opts.Mem.SRAMBytes)
	if addr < mem.SRAMBase || addr >= sramEnd {
		return
	}
	first, last := coveredWords(addr, size)
	if in.Op.IsStore() {
		if s.sramStores == nil {
			s.sramStores = map[uint32]int{}
		}
		for w := first; w <= last; w += 4 {
			if _, ok := s.sramStores[w]; !ok {
				s.sramStores[w] = idx
			}
		}
		return
	}
	if !check {
		return
	}
	for w := first; w <= last; w += 4 {
		if si, ok := s.sramStores[w]; ok {
			c.reportRegion(CodeVolatileCross, Error, idx,
				c.ins[si].addr, c.ins[idx].addr,
				"volatile SRAM word %#08x is written (%s) and read (%s) with a possible power failure in between; an outage wipes SRAM under every runtime — NVP resumes past the lost store, Clank/undo-log re-execution from a mid-interval checkpoint re-reads the wiped word — so this load observes zeros", w, c.siteRef(si), c.siteRef(idx))
		}
	}
}

// stepInput extends the forward transfer function with repeated-input
// tracking (WN105). Called from step for every load whose effective address
// resolved statically, only when Options.Crash is set and input locations
// are declared. The read set is never cleared — a skim point commits
// program state, not the external world, so a sampled input stays hazardous
// until the program halts.
func (c *checker) stepInput(s *dfState, idx int, addr uint32, size int, check bool) {
	first, last := coveredWords(addr, size)
	for w := first; w <= last; w += 4 {
		overlaps := false
		for _, r := range c.opts.Input {
			if r.Start < w+4 && r.End > w {
				overlaps = true
				break
			}
		}
		if !overlaps {
			continue
		}
		if prior, ok := s.inputReads[w]; ok {
			if check {
				c.reportRegion(CodeRepeatedInput, Error, idx,
					c.ins[prior].addr, c.ins[idx].addr,
					"input word %#08x is read (%s) and read again (%s) with a possible power failure in between; the external world advances across a reboot, so re-execution observes a different sample than an uninterrupted run — the final state can be consistent with no single world", w, c.siteRef(prior), c.siteRef(idx))
			}
			if idx < prior {
				s.inputReads[w] = idx
			}
		} else {
			if s.inputReads == nil {
				s.inputReads = map[uint32]int{}
			}
			s.inputReads[w] = idx
		}
	}
}

// reportRMW files the non-idempotent re-execution finding (WN108): the
// stored value derives from a load of the same non-volatile word. Warning,
// not error: Clank repairs the replay with a forced checkpoint and the undo
// log by rollback (both at a cost), but any runtime that replays without
// WAR detection double-applies the update.
func (c *checker) reportRMW(storeIdx int, p provVal, word uint32) {
	c.reportRegion(CodeNonIdempotent, Warning, storeIdx,
		c.ins[p.loadIdx].addr, c.ins[storeIdx].addr,
		"non-volatile word %#08x is stored with a value derived from its own prior value (loaded at %s) — a read-modify-write without privatization; re-executing the interval after a power failure double-applies the update under replay-based runtimes without WAR detection", word, c.siteRef(p.loadIdx))
}

// runCrash reports WN104: registers that are live at a skim-resume target
// and written while the skim is armed. The approximation is deliberate and
// one-sided in the direction the fault injector can witness: a register
// mutated after the SKM observably diverges (NVP resumes with the
// mid-flight value, Clank/undo-log restore a checkpoint predating the
// write), while registers untouched since before the arming hold the same
// value in every checkpoint the restore could load.
func (c *checker) runCrash() {
	if !c.opts.Crash || len(c.blocks) == 0 {
		return
	}
	for _, b := range c.blocks {
		if !b.reachable {
			continue
		}
		for i := b.start; i < b.end; i++ {
			ins := c.ins[i]
			if !ins.ok || ins.in.Op != isa.OpSkm {
				continue
			}
			c.checkSkimResume(i)
		}
	}
}

// checkSkimResume analyzes one reachable SKM instruction.
func (c *checker) checkSkimResume(idx int) {
	target := uint32(c.ins[idx].in.Imm)
	if target%isa.InstBytes != 0 || target < mem.CodeBase {
		return // WN213 already covers malformed targets
	}
	t := int(target-mem.CodeBase) / isa.InstBytes
	if t < 0 || t >= len(c.ins) {
		return
	}

	hazard := c.liveAtInstr(t)
	hazard &= c.writtenFrom(idx + 1)
	hazard.remove(isa.SP) // pinned at boot, identical in every checkpoint
	hazard.remove(isa.PC) // the restore path sets it to the target
	if hazard == 0 {
		return
	}

	var names []string
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if hazard.has(r) {
			names = append(names, r.String())
		}
	}
	c.reportRegion(CodeSkimStaleReg, Error, idx,
		c.ins[idx].addr, target,
		"skim restore jumps to %#08x with stale register state: %s live at the target and written while the skim is armed; after an outage Clank and the undo log restore checkpoint-time values and NVP resumes with interruption-time values, so the committed result differs from the fall-through path", target, strings.Join(names, ", "))
}

// runCommitOrder reports WN107: a non-volatile word written while a skim
// point is armed and read on the path from the skim target. In program
// order the write precedes the target's read, but an outage inside the
// armed interval resumes at the target without (or with only part of) the
// interval's writes, so the read observes a state the commit order forbids.
func (c *checker) runCommitOrder() {
	if !c.opts.Crash || len(c.blocks) == 0 {
		return
	}
	for _, b := range c.blocks {
		if !b.reachable {
			continue
		}
		for i := b.start; i < b.end; i++ {
			ins := c.ins[i]
			if !ins.ok || ins.in.Op != isa.OpSkm {
				continue
			}
			c.checkCommitOrder(i)
		}
	}
}

// checkCommitOrder analyzes one reachable SKM instruction.
func (c *checker) checkCommitOrder(idx int) {
	target := uint32(c.ins[idx].in.Imm)
	if target%isa.InstBytes != 0 || target < mem.CodeBase {
		return // WN213 already covers malformed targets
	}
	t := int(target-mem.CodeBase) / isa.InstBytes
	if t < 0 || t >= len(c.ins) {
		return
	}

	// Known-address NV stores inside the armed interval: from the SKM to
	// the target, stopping at re-arming skim points and control exits.
	stores := map[uint32]int{}
	c.walkFrom(idx+1, func(i int, s *dfState) bool {
		if i == t {
			return false
		}
		ins := c.ins[i]
		if !ins.ok {
			return false
		}
		switch ins.in.Op {
		case isa.OpSkm, isa.OpHalt, isa.OpBx:
			return false
		}
		if ins.in.Op.IsStore() {
			if addr, ok := s.effAddr(ins.in); ok && locClassOf(addr, c.opts.Mem, c.opts.Input) == ClassNV {
				first, last := coveredWords(addr, ins.in.Op.AccessBytes())
				for w := first; w <= last; w += 4 {
					if cur, ok := stores[w]; !ok || i < cur {
						stores[w] = i
					}
				}
			}
		}
		return true
	})
	if len(stores) == 0 {
		return
	}

	// Known-address NV loads observable from the target.
	reads := map[uint32]int{}
	c.walkFrom(t, func(i int, s *dfState) bool {
		ins := c.ins[i]
		if !ins.ok {
			return false
		}
		if ins.in.Op == isa.OpSkm {
			return false // a new armed interval; its commit is its own story
		}
		if ins.in.Op.IsLoad() {
			if addr, ok := s.effAddr(ins.in); ok && locClassOf(addr, c.opts.Mem, c.opts.Input) == ClassNV {
				first, last := coveredWords(addr, ins.in.Op.AccessBytes())
				for w := first; w <= last; w += 4 {
					if cur, ok := reads[w]; !ok || i < cur {
						reads[w] = i
					}
				}
			}
		}
		return true
	})

	var words []uint32
	for w := range stores {
		if _, ok := reads[w]; ok {
			words = append(words, w)
		}
	}
	sort.Slice(words, func(i, j int) bool { return words[i] < words[j] })
	for _, w := range words {
		si, ri := stores[w], reads[w]
		c.reportRegion(CodeCommitOrder, Error, si,
			c.ins[idx].addr, target,
			"non-volatile word %#08x is written while the skim point at %s is armed and observed at the skim target (read at %s); an outage inside the armed interval resumes at %#08x with the interval's writes missing or partial, inverting the visible order relative to the commit point", w, c.siteRef(idx), c.siteRef(ri), target)
	}
}

// walkFrom drives visit over every instruction reachable from index `from`
// (inclusive), in abstract-state context: visit receives the forward state
// just before the instruction and returns false to stop the walk along that
// path. Mid-block entry points replay the block prefix from the converged
// block in-state to recover the state at the entry.
func (c *checker) walkFrom(from int, visit func(i int, s *dfState) bool) {
	if from < 0 || from >= len(c.ins) || c.inStates == nil {
		return
	}
	visited := make([]bool, len(c.ins))
	stack := []int{from}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[i] {
			continue
		}
		b := c.blocks[c.blockOf[i]]
		if !c.inStates[b.id].valid {
			continue
		}
		s := c.inStates[b.id].clone()
		for j := b.start; j < i; j++ {
			c.step(&s, j, false)
		}
		cont := true
		for j := i; j < b.end; j++ {
			if visited[j] {
				cont = false
				break
			}
			visited[j] = true
			if !visit(j, &s) {
				cont = false
				break
			}
			c.step(&s, j, false)
		}
		if cont {
			for _, succ := range b.succs {
				if si := c.blocks[succ].start; !visited[si] {
					stack = append(stack, si)
				}
			}
		}
	}
}

// writtenFrom returns the registers that may be written by any instruction
// reachable from index start (inclusive), following the CFG.
func (c *checker) writtenFrom(start int) regSet {
	if start >= len(c.ins) {
		return 0
	}
	var written regSet
	seenBlock := make([]bool, len(c.blocks))
	scan := func(from, to int) {
		for i := from; i < to; i++ {
			ins := c.ins[i]
			if !ins.ok {
				continue
			}
			if ins.in.Op == isa.OpBl {
				written = allRegs // the callee may clobber anything
				continue
			}
			if d, ok := defOf(ins.in); ok {
				written.add(d)
			}
		}
	}

	first := c.blocks[c.blockOf[start]]
	scan(start, first.end)
	stack := append([]int(nil), first.succs...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seenBlock[id] {
			continue
		}
		seenBlock[id] = true
		b := c.blocks[id]
		scan(b.start, b.end)
		stack = append(stack, b.succs...)
	}
	return written
}

// liveAtInstr computes the registers live just before instruction idx:
// read before being written on some path from idx. Skim targets are not
// block leaders (SKM is not a branch), so the block-level solution is
// refined by walking the containing block backward to idx.
func (c *checker) liveAtInstr(idx int) regSet {
	c.ensureLiveness()
	b := c.blocks[c.blockOf[idx]]
	live := c.liveOut[b.id]
	if len(b.succs) == 0 && b.end > b.start {
		if last := c.ins[b.end-1]; last.ok && last.in.Op == isa.OpBx {
			live = allRegs
		}
	}
	for i := b.end - 1; i >= idx; i-- {
		live = stepLiveBack(live, c.ins[i])
	}
	return live
}

// stepLiveBack is the backward per-instruction liveness transfer.
func stepLiveBack(live regSet, ins instr) regSet {
	if !ins.ok {
		return live
	}
	if ins.in.Op == isa.OpBx {
		// Indirect branch: the continuation is unknown, assume everything
		// is live.
		live = allRegs
	}
	if d, ok := defOf(ins.in); ok {
		live.remove(d)
	}
	for _, u := range usesOf(ins.in) {
		live.add(u)
	}
	return live
}

// ensureLiveness computes the block-level liveness fixpoint once.
func (c *checker) ensureLiveness() {
	if c.liveDone {
		return
	}
	c.liveDone = true
	c.liveIn = make([]regSet, len(c.blocks))
	c.liveOut = make([]regSet, len(c.blocks))

	transfer := func(b *block, out regSet) regSet {
		live := out
		for i := b.end - 1; i >= b.start; i-- {
			live = stepLiveBack(live, c.ins[i])
		}
		return live
	}

	changed := true
	for changed {
		changed = false
		for id := len(c.blocks) - 1; id >= 0; id-- {
			b := c.blocks[id]
			var out regSet
			for _, s := range b.succs {
				out |= c.liveIn[s]
			}
			if len(b.succs) == 0 && b.end > b.start {
				if last := c.ins[b.end-1]; last.ok && last.in.Op == isa.OpBx {
					out = allRegs
				}
			}
			in := transfer(b, out)
			if in != c.liveIn[id] || out != c.liveOut[id] {
				c.liveIn[id], c.liveOut[id] = in, out
				changed = true
			}
		}
	}
}
