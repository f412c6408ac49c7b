package cpu

import (
	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
	"whatsnext/internal/wncheck"
)

// translation is the per-image superblock table, indexed by instruction
// slot. Only a block's first slot carries a pointer: jumping into the middle
// of a block (computed BX targets only — every statically-known branch
// target is a CFG leader and therefore starts a block) deoptimizes.
//
// A translation depends only on the decode cache and the amenable bitset,
// never on register or memory state, so forked CPUs share one instance.
type translation struct {
	blockAt []*transBlock
}

// opCount is one (opcode, occurrences) pair of a superblock, applied to
// Stats.OpCount in O(distinct ops) instead of O(instructions) per execution.
type opCount struct {
	op isa.Opcode
	n  uint64
}

// transBlock is one fused superblock: the straight-line body as an array of
// closures executed with zero dispatch, plus the block's terminator inlined
// when it is a direct/conditional branch, BL, or BX (through a non-PC
// register). All aggregate accounting (cycles, amenable hits, op counts) is
// precomputed so a full-block execution updates Stats in O(1).
type transBlock struct {
	startPC uint32 // address of the first body instruction
	endPC   uint32 // one past the last body instruction; terminator address if fused

	fns  []func(*CPU) bool           // body; false = fault recorded in c.sbErr
	term func(*CPU) (uint32, uint32) // fused terminator: (nextPC, cycles); nil if none

	instrs     uint64 // len(fns) + 1 if term != nil
	bodyCycles uint64 // static cycle sum over fns (memo fast-hits subtract via sbAdj)
	maxCycles  uint64 // bodyCycles + worst-case terminator cycles; budget gate
	amen       uint64 // amenable marks across body + fused terminator

	// Per-body-instruction data for the partial-fault exit, which must
	// account a prefix exactly as RunUntil would have.
	ops   []isa.Opcode
	cyc   []uint32
	amens []bool
	// costs holds the per-instruction Cost records emitted on the cost-replay
	// path. Only valid when the block has no stores and, with a memo table
	// installed, no multiplies (then every cost is static with zero NV
	// writes); the gates enforce it.
	costs []Cost

	opCounts []opCount
	hasStore bool
	hasMul   bool
}

// Run is the batched executor the runtimes use. It has RunUntil's exact
// contract: same stop reasons, same overshoot bound (budget +
// MaxInstrCycles - 1), same Stats and cost replay semantics.
//
// Run executes translated superblocks. At each block boundary it executes
// a fused block when one starts at PC, fits the remaining budget in the
// worst case, and no runtime-visibility gate applies. Otherwise it
// deoptimizes: RunUntil's interpreter runs from PC until PC reaches a
// block the gates let Run fuse, and Run resumes fusing there. A loop whose
// blocks all fail a gate thus stays in one interpreter call.
// Only a block that may not fit the remaining budget hands the rest of the
// window to the interpreter, which must pick the exact stop instruction.
// Delegation (rather than a private slow path) keeps the deopt semantics
// definitionally identical to the batched interpreter: every stop reason,
// fault message, hook interaction, and the overshoot bound come from the
// same code.
//
// Gates deoptimizing a block:
//   - a BeforeStore hook is installed and the block stores (the hook must
//     observe NV-data stores at instruction granularity via StopStore);
//   - the caller wants per-instruction costs and the block stores (store
//     costs carry NV-write counts);
//   - the caller wants costs, a memo table is installed and the block
//     multiplies (memoized multiplies have data-dependent cycles; without
//     a memo table a multiply's cost is static and the block's costs are
//     exact);
//   - the block's worst-case cycles do not fit the remaining budget.
func (c *CPU) Run(budget uint64, costs *[]Cost) (BatchResult, error) {
	var res BatchResult
	if c.Halted {
		res.Reason = StopHalt
		return res, nil
	}
	if err := c.ensureDecodeCache(); err != nil {
		res.Reason = StopFault
		return res, err
	}
	if c.trans == nil {
		c.buildTranslation()
	}
	if len(c.sbRuns) != len(c.trans.blockAt) {
		c.sbRuns = make([]uint64, len(c.trans.blockAt))
		c.sbDirty = c.sbDirty[:0]
	}

	var (
		tr        = c.trans
		hook      = c.BeforeStore != nil
		wantCosts = costs != nil
		resume    = resumeAt{
			blockAt: tr.blockAt,
			stores:  hook || wantCosts,
			muls:    wantCosts && c.Memo != nil,
		}
		regs                      = &c.Regs
		cycAcc, instrAcc, amenAcc uint64
		// The interpreter's share of the window, which runUntil has
		// already added to Stats.
		interpCycles, interpInstrs uint64
		reason                     = StopBudget
		fault                      error
	)

	pc := regs[isa.PC]
	for cycAcc < budget {
		slot := (pc - mem.CodeBase) / isa.InstBytes
		var tb *transBlock
		if pc%isa.InstBytes == 0 && slot < uint32(len(tr.blockAt)) {
			tb = tr.blockAt[slot]
		}
		if tb == nil || cycAcc+tb.maxCycles > budget || resume.gated(tb) {
			r := &resume
			if tb != nil && cycAcc+tb.maxCycles > budget {
				r = nil // the rest of the window
			}
			sub, err := c.runUntil(budget-cycAcc, costs, hook, r)
			cycAcc += sub.Cycles
			interpCycles += sub.Cycles
			interpInstrs += sub.Instructions
			if err != nil || sub.Reason != StopBudget {
				reason, fault = sub.Reason, err
				break
			}
			pc = regs[isa.PC]
			continue
		}

		// Execute the block — and when it is a self-loop (its terminator
		// branches back to its own head), keep iterating without repeating
		// the slot lookup and entry gates. Completed executions accumulate
		// in a local counter and flush into the deferred per-slot tally.
		runs := uint64(0)
		faultIdx := -1
		for {
			if tb.hasMul {
				c.sbAdj = 0 // memo fast-hit cycle discounts accumulate here
			}
			for i, f := range tb.fns {
				if !f(c) {
					faultIdx = i
					break
				}
			}
			if faultIdx >= 0 {
				break
			}
			blockCycles := tb.bodyCycles
			if tb.hasMul {
				blockCycles -= c.sbAdj
			}
			cycAcc += blockCycles
			runs++
			if wantCosts {
				*costs = append(*costs, tb.costs...)
			}
			if tb.term != nil {
				nextPC, tcyc := tb.term(c)
				cycAcc += uint64(tcyc)
				if wantCosts {
					*costs = append(*costs, Cost{Cycles: tcyc})
				}
				pc = nextPC
			} else {
				pc = tb.endPC
			}
			if pc != tb.startPC || cycAcc+tb.maxCycles > budget {
				break
			}
		}
		if runs > 0 {
			if c.sbRuns[slot] == 0 {
				c.sbDirty = append(c.sbDirty, slot)
			}
			c.sbRuns[slot] += runs
		}
		regs[isa.PC] = pc

		if faultIdx >= 0 {
			// A body memory access faulted at index faultIdx. Account the
			// executed prefix exactly as RunUntil: OpCount/cycles/costs for
			// instructions before the fault, the amenable mark of the
			// faulting instruction too (the interpreter tallies it before
			// executing), PC left at the faulting instruction.
			var prefix uint64
			for i := 0; i < faultIdx; i++ {
				c.Stats.OpCount[tb.ops[i]]++
				prefix += uint64(tb.cyc[i])
				if tb.amens[i] {
					amenAcc++
				}
				if wantCosts {
					*costs = append(*costs, tb.costs[i])
				}
			}
			if tb.hasMul {
				prefix -= c.sbAdj
			}
			cycAcc += prefix
			instrAcc += uint64(faultIdx)
			if tb.amens[faultIdx] {
				amenAcc++
			}
			pc = tb.startPC + uint32(faultIdx)*isa.InstBytes
			regs[isa.PC] = pc
			reason = StopFault
			fault = c.sbErr
			c.sbErr = nil
			break
		}
	}

	instrAcc, amenAcc = c.flushSuperCounts(instrAcc, amenAcc)
	c.sbInstrs += instrAcc
	res.Cycles = cycAcc
	res.Instructions = instrAcc + interpInstrs
	res.Reason = reason
	c.Stats.Cycles += cycAcc - interpCycles
	c.Stats.Instructions += instrAcc
	c.Stats.AmenableOps += amenAcc
	return res, fault
}

// resumeAt tells the interpreter where Run can fuse again: at the start of
// a block that the window's gates do not keep on the interpreter.
type resumeAt struct {
	blockAt []*transBlock
	stores  bool // blocks that store stay on the interpreter
	muls    bool // blocks that multiply stay on the interpreter
}

// gated reports whether the window's gates keep tb on the interpreter.
func (r resumeAt) gated(tb *transBlock) bool {
	return r.stores && tb.hasStore || r.muls && tb.hasMul
}

// fusable reports whether a fused block Run may execute starts at pc.
func (r resumeAt) fusable(pc uint32) bool {
	slot := (pc - mem.CodeBase) / isa.InstBytes
	if pc%isa.InstBytes != 0 || slot >= uint32(len(r.blockAt)) {
		return false
	}
	tb := r.blockAt[slot]
	return tb != nil && !r.gated(tb)
}

// flushSuperCounts applies the deferred per-block run tallies to
// Stats.OpCount and folds the corresponding instruction and amenable counts
// into the window accumulators, clearing the tallies for the next window.
func (c *CPU) flushSuperCounts(instrAcc, amenAcc uint64) (uint64, uint64) {
	if len(c.sbDirty) == 0 {
		return instrAcc, amenAcc
	}
	for _, slot := range c.sbDirty {
		tb := c.trans.blockAt[slot]
		runs := c.sbRuns[slot]
		c.sbRuns[slot] = 0
		for _, oc := range tb.opCounts {
			c.Stats.OpCount[oc.op] += oc.n * runs
		}
		instrAcc += tb.instrs * runs
		amenAcc += tb.amen * runs
	}
	c.sbDirty = c.sbDirty[:0]
	return instrAcc, amenAcc
}

// buildTranslation fuses the decoded program into superblocks along the
// wncheck CFG. Block extents come from the same graph the static verifier
// reasons about (wncheck.ImageCFG), so translated boundaries cannot drift
// from the checker's.
func (c *CPU) buildTranslation() {
	cache := c.decodeCache
	tr := &translation{blockAt: make([]*transBlock, len(cache))}
	c.trans = tr
	if len(cache) == 0 {
		return
	}
	g := wncheck.ImageCFG(c.Mem.ProgramImage())
	for _, b := range g.Blocks() {
		start := int(b.Start-mem.CodeBase) / isa.InstBytes
		end := int(b.End-mem.CodeBase) / isa.InstBytes
		if start < 0 || end > len(cache) || start >= end {
			continue
		}
		if tb := buildBlock(cache, start, end); tb != nil {
			tr.blockAt[start] = tb
		}
	}
}

// TranslationBlocks returns the [start, end) instruction-address extent of
// every fused superblock in ascending order, the end covering the fused
// terminator when present. The CFG-boundary test pins these against
// wncheck's exported blocks.
func (c *CPU) TranslationBlocks() ([][2]uint32, error) {
	if err := c.ensureDecodeCache(); err != nil {
		return nil, err
	}
	if c.trans == nil {
		c.buildTranslation()
	}
	var out [][2]uint32
	for _, tb := range c.trans.blockAt {
		if tb == nil {
			continue
		}
		end := tb.endPC
		if tb.term != nil {
			end += isa.InstBytes
		}
		out = append(out, [2]uint32{tb.startPC, end})
	}
	return out, nil
}

// buildBlock fuses one CFG block [start, end) of decode-cache slots: a
// maximal translatable prefix as the body, plus the terminator when the
// prefix reaches it. Returns nil if nothing fused.
func buildBlock(cache []decoded, start, end int) *transBlock {
	tb := &transBlock{startPC: mem.CodeBase + uint32(start*isa.InstBytes)}
	counts := make(map[isa.Opcode]uint64)
	i := start
	for ; i < end; i++ {
		d := cache[i]
		fn := buildBodyFn(d.in)
		if fn == nil {
			break
		}
		tb.fns = append(tb.fns, fn)
		tb.ops = append(tb.ops, d.in.Op)
		tb.cyc = append(tb.cyc, d.cycles)
		tb.amens = append(tb.amens, d.amen)
		tb.costs = append(tb.costs, Cost{Cycles: d.cycles})
		tb.bodyCycles += uint64(d.cycles)
		if d.amen {
			tb.amen++
		}
		if d.in.Op.IsStore() {
			tb.hasStore = true
		}
		if d.in.Op.IsMul() {
			tb.hasMul = true
		}
		counts[d.in.Op]++
	}
	tb.endPC = mem.CodeBase + uint32(i*isa.InstBytes)
	tb.instrs = uint64(len(tb.fns))
	tb.maxCycles = tb.bodyCycles
	if i == end-1 {
		// The body covers everything up to the block's last instruction;
		// fuse the terminator if it is an inlinable branch.
		d := cache[i]
		if term, worst := buildTerm(d.in, mem.CodeBase+uint32(i*isa.InstBytes)); term != nil {
			tb.term = term
			tb.instrs++
			tb.maxCycles += uint64(worst)
			if d.amen {
				tb.amen++
			}
			counts[d.in.Op]++
		}
	}
	if tb.instrs == 0 {
		return nil
	}
	for op := isa.Opcode(0); int(op) < isa.NumOpcodes; op++ {
		if n := counts[op]; n > 0 {
			tb.opCounts = append(tb.opCounts, opCount{op: op, n: n})
		}
	}
	return tb
}

// usesRn reports whether the opcode reads its Rn operand.
func usesRn(op isa.Opcode) bool {
	switch {
	case op >= isa.OpAdd && op <= isa.OpSubIS: // three-operand ALU, CMP forms
		return true
	case op == isa.OpMul:
		return true
	case op.IsLoad() || op.IsStore():
		return true
	}
	return false
}

// bodyUsesPC reports whether the instruction reads or writes PC through an
// operand it actually uses. Such instructions stay on the interpreter: the
// superblock body keeps PC in a local and only writes the register-file slot
// at block exit, so a mid-block PC operand would observe a stale value.
func bodyUsesPC(in isa.Instruction) bool {
	switch in.Op {
	case isa.OpNop:
		return false
	case isa.OpCmp:
		return in.Rn == isa.PC || in.Rm == isa.PC
	case isa.OpCmpI:
		return in.Rn == isa.PC
	}
	if in.Rd == isa.PC {
		return true
	}
	if usesRn(in.Op) && in.Rn == isa.PC {
		return true
	}
	if in.Op.HasRm() && in.Rm == isa.PC {
		return true
	}
	return false
}

// buildBodyFn compiles one straight-line instruction into a closure over its
// operand indices (masked, proving them in-range so the bounds checks
// vanish). Returns nil for instructions that must stay on the interpreter:
// branches (fused separately as terminators), HALT, SKM, invalid slots, and
// PC-relative operands. Memory faults are parked in c.sbErr and signalled by
// returning false.
//
// The closures mirror RunUntil's switch case for case — the differential
// and fuzz-corpus tests in super_test.go pin Run, RunUntil and the test
// oracle to identical architectural state, Stats, and cycle counts.
func buildBodyFn(in isa.Instruction) func(*CPU) bool {
	op := in.Op
	if !op.Valid() || op.IsBranch() || op == isa.OpHalt || op == isa.OpSkm {
		return nil
	}
	if bodyUsesPC(in) {
		return nil
	}
	rd := int(in.Rd) & 15
	rn := int(in.Rn) & 15
	rm := int(in.Rm) & 15
	imm := uint32(in.Imm)

	switch op {
	case isa.OpNop:
		return func(*CPU) bool { return true }

	case isa.OpMov:
		return func(c *CPU) bool { c.Regs[rd] = c.Regs[rm]; return true }
	case isa.OpMovI:
		return func(c *CPU) bool { c.Regs[rd] = imm; return true }
	case isa.OpMovTI:
		hi := imm << 16
		return func(c *CPU) bool { c.Regs[rd] = c.Regs[rd]&0xFFFF | hi; return true }

	case isa.OpAdd:
		return func(c *CPU) bool { c.Regs[rd] = c.Regs[rn] + c.Regs[rm]; return true }
	case isa.OpAddI:
		return func(c *CPU) bool { c.Regs[rd] = c.Regs[rn] + imm; return true }
	case isa.OpSub:
		return func(c *CPU) bool { c.Regs[rd] = c.Regs[rn] - c.Regs[rm]; return true }
	case isa.OpSubI:
		return func(c *CPU) bool { c.Regs[rd] = c.Regs[rn] - imm; return true }
	case isa.OpAnd:
		return func(c *CPU) bool { c.Regs[rd] = c.Regs[rn] & c.Regs[rm]; return true }
	case isa.OpAndI:
		return func(c *CPU) bool { c.Regs[rd] = c.Regs[rn] & imm; return true }
	case isa.OpOrr:
		return func(c *CPU) bool { c.Regs[rd] = c.Regs[rn] | c.Regs[rm]; return true }
	case isa.OpOrrI:
		return func(c *CPU) bool { c.Regs[rd] = c.Regs[rn] | imm; return true }
	case isa.OpEor:
		return func(c *CPU) bool { c.Regs[rd] = c.Regs[rn] ^ c.Regs[rm]; return true }
	case isa.OpEorI:
		return func(c *CPU) bool { c.Regs[rd] = c.Regs[rn] ^ imm; return true }
	case isa.OpLsl:
		return func(c *CPU) bool { c.Regs[rd] = shiftL(c.Regs[rn], c.Regs[rm]); return true }
	case isa.OpLslI:
		return func(c *CPU) bool { c.Regs[rd] = shiftL(c.Regs[rn], imm); return true }
	case isa.OpLsr:
		return func(c *CPU) bool { c.Regs[rd] = shiftR(c.Regs[rn], c.Regs[rm]); return true }
	case isa.OpLsrI:
		return func(c *CPU) bool { c.Regs[rd] = shiftR(c.Regs[rn], imm); return true }
	case isa.OpAsr:
		return func(c *CPU) bool { c.Regs[rd] = shiftAR(c.Regs[rn], c.Regs[rm]); return true }
	case isa.OpAsrI:
		return func(c *CPU) bool { c.Regs[rd] = shiftAR(c.Regs[rn], imm); return true }

	case isa.OpCmp:
		return func(c *CPU) bool { c.setFlagsSub(c.Regs[rn], c.Regs[rm]); return true }
	case isa.OpCmpI:
		return func(c *CPU) bool { c.setFlagsSub(c.Regs[rn], imm); return true }
	case isa.OpSubIS:
		return func(c *CPU) bool {
			a := c.Regs[rn]
			c.setFlagsSub(a, imm)
			c.Regs[rd] = a - imm
			return true
		}

	case isa.OpMul:
		// Static cost is 16 cycles; a memo fast hit costs 1, recorded as a
		// 15-cycle discount in sbAdj (the block subtracts it afterwards).
		return func(c *CPU) bool {
			a, b := c.Regs[rn], c.Regs[rm]
			prod := a * b
			if c.Memo != nil {
				var fast bool
				prod, fast = c.mulWithMemo(a, b)
				if fast {
					c.sbAdj += MaxInstrCycles - 1
				}
			}
			c.Regs[rd] = prod
			return true
		}

	case isa.OpMulASP1, isa.OpMulASP2, isa.OpMulASP3, isa.OpMulASP4, isa.OpMulASP8:
		sh := uint32(op.ASPBits()) * imm
		discount := uint64(op.BaseCycles() - 1)
		return func(c *CPU) bool {
			a, b := c.Regs[rd], c.Regs[rm]
			prod := a * b
			if c.Memo != nil {
				var fast bool
				prod, fast = c.mulWithMemo(a, b)
				if fast {
					c.sbAdj += discount
				}
			}
			c.Regs[rd] = shiftL(prod, sh)
			return true
		}

	case isa.OpAddASV4, isa.OpAddASV8, isa.OpAddASV16:
		lane := op.ASVLane()
		return func(c *CPU) bool {
			c.Regs[rd] = AddASV(c.Regs[rd], c.Regs[rm], lane)
			return true
		}
	case isa.OpSubASV4, isa.OpSubASV8, isa.OpSubASV16:
		lane := op.ASVLane()
		return func(c *CPU) bool {
			c.Regs[rd] = SubASV(c.Regs[rd], c.Regs[rm], lane)
			return true
		}

	case isa.OpLdr, isa.OpLdrX:
		x := op == isa.OpLdrX
		return func(c *CPU) bool {
			addr := c.Regs[rn] + imm
			if x {
				addr = c.Regs[rn] + c.Regs[rm]
			}
			if v, ok := c.Mem.TryLoadWord(addr); ok {
				c.Regs[rd] = v
			} else if v, err := c.Mem.LoadWord(addr); err != nil {
				c.sbErr = err
				return false
			} else {
				c.Regs[rd] = v
			}
			return true
		}
	case isa.OpLdrh, isa.OpLdrhX:
		x := op == isa.OpLdrhX
		return func(c *CPU) bool {
			addr := c.Regs[rn] + imm
			if x {
				addr = c.Regs[rn] + c.Regs[rm]
			}
			if v, ok := c.Mem.TryLoadHalf(addr); ok {
				c.Regs[rd] = v
			} else if v, err := c.Mem.LoadHalf(addr); err != nil {
				c.sbErr = err
				return false
			} else {
				c.Regs[rd] = v
			}
			return true
		}
	case isa.OpLdrb, isa.OpLdrbX:
		x := op == isa.OpLdrbX
		return func(c *CPU) bool {
			addr := c.Regs[rn] + imm
			if x {
				addr = c.Regs[rn] + c.Regs[rm]
			}
			if v, ok := c.Mem.TryLoadByte(addr); ok {
				c.Regs[rd] = v
			} else if v, err := c.Mem.LoadByte(addr); err != nil {
				c.sbErr = err
				return false
			} else {
				c.Regs[rd] = v
			}
			return true
		}

	case isa.OpStr, isa.OpStrX:
		x := op == isa.OpStrX
		return func(c *CPU) bool {
			addr := c.Regs[rn] + imm
			if x {
				addr = c.Regs[rn] + c.Regs[rm]
			}
			if !c.Mem.TryStoreWord(addr, c.Regs[rd]) {
				if err := c.Mem.StoreWord(addr, c.Regs[rd]); err != nil {
					c.sbErr = err
					return false
				}
			}
			return true
		}
	case isa.OpStrh, isa.OpStrhX:
		x := op == isa.OpStrhX
		return func(c *CPU) bool {
			addr := c.Regs[rn] + imm
			if x {
				addr = c.Regs[rn] + c.Regs[rm]
			}
			if !c.Mem.TryStoreHalf(addr, c.Regs[rd]) {
				if err := c.Mem.StoreHalf(addr, c.Regs[rd]); err != nil {
					c.sbErr = err
					return false
				}
			}
			return true
		}
	case isa.OpStrb, isa.OpStrbX:
		x := op == isa.OpStrbX
		return func(c *CPU) bool {
			addr := c.Regs[rn] + imm
			if x {
				addr = c.Regs[rn] + c.Regs[rm]
			}
			if !c.Mem.TryStoreByte(addr, c.Regs[rd]) {
				if err := c.Mem.StoreByte(addr, c.Regs[rd]); err != nil {
					c.sbErr = err
					return false
				}
			}
			return true
		}
	}
	return nil
}

// buildTerm compiles a block-terminating branch at pc into a closure
// returning (nextPC, cycles), plus its worst-case cycle cost for the budget
// gate. Returns nil for non-branches (HALT, SKM, fall-through splits) and
// for `BX PC`, whose operand would be stale mid-superblock.
func buildTerm(in isa.Instruction, pc uint32) (func(*CPU) (uint32, uint32), uint32) {
	op := in.Op
	base := op.BaseCycles()
	taken := base + 1 // pipeline refill on a taken conditional branch
	tgt := pc + uint32(in.Imm)
	fall := pc + isa.InstBytes

	switch op {
	case isa.OpB:
		return func(*CPU) (uint32, uint32) { return tgt, base }, base
	case isa.OpBl:
		return func(c *CPU) (uint32, uint32) {
			c.Regs[isa.LR] = fall
			return tgt, base
		}, base
	case isa.OpBx:
		if in.Rm == isa.PC {
			return nil, 0
		}
		rm := int(in.Rm) & 15
		return func(c *CPU) (uint32, uint32) { return c.Regs[rm], base }, base
	case isa.OpBeq:
		return func(c *CPU) (uint32, uint32) {
			if c.Z {
				return tgt, taken
			}
			return fall, base
		}, taken
	case isa.OpBne:
		return func(c *CPU) (uint32, uint32) {
			if !c.Z {
				return tgt, taken
			}
			return fall, base
		}, taken
	case isa.OpBlt:
		return func(c *CPU) (uint32, uint32) {
			if c.N != c.V {
				return tgt, taken
			}
			return fall, base
		}, taken
	case isa.OpBge:
		return func(c *CPU) (uint32, uint32) {
			if c.N == c.V {
				return tgt, taken
			}
			return fall, base
		}, taken
	case isa.OpBgt:
		return func(c *CPU) (uint32, uint32) {
			if !c.Z && c.N == c.V {
				return tgt, taken
			}
			return fall, base
		}, taken
	case isa.OpBle:
		return func(c *CPU) (uint32, uint32) {
			if c.Z || c.N != c.V {
				return tgt, taken
			}
			return fall, base
		}, taken
	case isa.OpBlo:
		return func(c *CPU) (uint32, uint32) {
			if !c.C {
				return tgt, taken
			}
			return fall, base
		}, taken
	case isa.OpBhs:
		return func(c *CPU) (uint32, uint32) {
			if c.C {
				return tgt, taken
			}
			return fall, base
		}, taken
	}
	return nil, 0
}

// Fork clones the core onto a forked memory for lockstep fault injection:
// architectural state (registers, flags, halt, skim) and Stats copy; the
// decode cache, decode errors, amenable bitset, and superblock translation
// are shared — they are immutable once built and depend only on the program
// image, so a thousand forked children pay translation exactly once.
//
// The BeforeStore hook is deliberately NOT carried over: it closes over the
// parent's runtime, and the forked runtime must reinstall its own. The memo
// table, when present, forks as a fresh empty table of the same size — the
// fork point is always followed by a power failure, which invalidates the
// (volatile) memo contents anyway.
func (c *CPU) Fork(m *mem.Memory) *CPU {
	n := &CPU{
		Regs:       c.Regs,
		N:          c.N,
		Z:          c.Z,
		C:          c.C,
		V:          c.V,
		Mem:        m,
		Halted:     c.Halted,
		SkimTarget: c.SkimTarget,
		SkimArmed:  c.SkimArmed,
		Stats:      c.Stats,

		amenable:    c.amenable,
		decodeCache: c.decodeCache,
		decodeErrs:  c.decodeErrs,
		trans:       c.trans,
	}
	if c.Memo != nil {
		n.Memo = NewSizedMemoTable(c.Memo.Entries())
	}
	return n
}
