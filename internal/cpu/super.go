package cpu

import (
	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
	"whatsnext/internal/wncheck"
)

// translation is the per-image superblock table, indexed by instruction
// slot. Only a block's first slot carries a pointer: jumping into the middle
// of a block (computed BX targets only — every statically-known branch
// target is a CFG leader and therefore starts a block) runs slot by slot
// until the next block start.
//
// A translation depends only on the decode cache and the amenable bitset,
// never on register or memory state, so forked CPUs share one instance.
type translation struct {
	blockAt []*transBlock
}

// transBlock is one fused superblock: the straight-line body as an array of
// closures executed with zero dispatch, plus the block's terminator inlined
// when it is a direct/conditional branch, BL, or BX (through a non-PC
// register). All aggregate accounting (cycles, instructions, amenable hits)
// is precomputed so a full-block execution updates Stats in O(1).
type transBlock struct {
	startPC uint32 // address of the first body instruction
	endPC   uint32 // one past the last body instruction; terminator address if fused

	fns  []func(*CPU) bool           // body; false = fault recorded in c.sbErr
	term func(*CPU) (uint32, uint32) // fused terminator: (nextPC, cycles); nil if none

	instrs     uint64 // len(fns) + 1 if term != nil
	bodyCycles uint64 // static cycle sum over fns (memo fast-hits subtract via sbAdj)
	maxCycles  uint64 // bodyCycles + worst-case terminator cycles; budget gate
	amen       uint64 // amenable marks across body + fused terminator

	// costs holds the per-instruction Cost records emitted on the cost-replay
	// path. Only valid when the block has no stores and, with a memo table
	// installed, no multiplies (then every cost is static with zero NV
	// writes); the gates enforce it.
	costs []Cost

	hasStore bool
	hasMul   bool
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

// buildBlock fuses one CFG block [start, end) of decode-cache slots: a
// maximal prefix of slot closures that may run back to back as the body,
// plus the terminator's closure when the prefix reaches it. Returns nil if
// nothing fused.
//
// Instructions with a PC operand, and `BX PC`, end the fusable prefix: a
// block keeps PC in a local and only writes the register-file slot at block
// exit, so a mid-block PC operand would observe a stale value.
func buildBlock(cache []decoded, start, end int) *transBlock {
	tb := &transBlock{startPC: mem.CodeBase + uint32(start*isa.InstBytes)}
	i := start
	for ; i < end; i++ {
		d := &cache[i]
		if d.exec == nil || bodyUsesPC(d.in) {
			break
		}
		tb.fns = append(tb.fns, d.exec)
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
	}
	tb.endPC = mem.CodeBase + uint32(i*isa.InstBytes)
	tb.instrs = uint64(len(tb.fns))
	tb.maxCycles = tb.bodyCycles
	if i == end-1 {
		// The body covers everything up to the block's last instruction;
		// fuse the terminator if it is an inlinable branch.
		if d := &cache[i]; d.term != nil && !(d.in.Op == isa.OpBx && d.in.Rm == isa.PC) {
			tb.term = d.term
			tb.instrs++
			tb.maxCycles += uint64(d.cycles) // a branch slot's worst case
			if d.amen {
				tb.amen++
			}
		}
	}
	if tb.instrs == 0 {
		return nil
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
// operand it actually uses.
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
// vanish). Together with buildTerm it is the only definition of what an
// instruction does: Run executes these closures one slot at a time or fused
// into superblocks. A closure reading PC sees Regs[PC], which holds its own
// address when it runs as a single slot. Returns nil for branches (see
// buildTerm), HALT, SKM and invalid slots, which Run handles itself. Memory
// faults are parked in c.sbErr and signalled by returning false.
//
// The differential and fuzz-corpus tests hold Run, with and without
// fusion, against the independent reference interpreter in the tests.
func buildBodyFn(in isa.Instruction) func(*CPU) bool {
	op := in.Op
	if !op.Valid() || op.IsBranch() || op == isa.OpHalt || op == isa.OpSkm {
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
		return func(c *CPU) bool { c.Regs[rd] = isa.ShiftL(c.Regs[rn], c.Regs[rm]); return true }
	case isa.OpLslI:
		return func(c *CPU) bool { c.Regs[rd] = isa.ShiftL(c.Regs[rn], imm); return true }
	case isa.OpLsr:
		return func(c *CPU) bool { c.Regs[rd] = isa.ShiftR(c.Regs[rn], c.Regs[rm]); return true }
	case isa.OpLsrI:
		return func(c *CPU) bool { c.Regs[rd] = isa.ShiftR(c.Regs[rn], imm); return true }
	case isa.OpAsr:
		return func(c *CPU) bool { c.Regs[rd] = isa.ShiftAR(c.Regs[rn], c.Regs[rm]); return true }
	case isa.OpAsrI:
		return func(c *CPU) bool { c.Regs[rd] = isa.ShiftAR(c.Regs[rn], imm); return true }

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
		// 15-cycle discount in sbAdj (Run subtracts it afterwards).
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
			c.Regs[rd] = isa.ShiftL(prod, sh)
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

// buildTerm compiles the branch at pc into a closure returning (nextPC,
// cycles), plus its worst-case cycle cost for the budget gate. Returns nil
// for non-branches.
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
