package cpu

import (
	"fmt"

	"whatsnext/internal/isa"
)

// This file keeps the reference interpreter: the original one-instruction
// engine, written as its own switch independent of Run's loop and the slot
// closures. It is the oracle the differential tests run Step, RunUntil and
// Run against, so a semantic slip in the closures shows up as a divergence
// instead of being copied into the expectation.

// refStep executes one instruction through execute. It shares decode (the
// predecoded slot cache and its fault messages), the memo table and the
// SWAR lane helpers with the production engines; flags, conditions and
// shifts have their own copies below. It calls BeforeStore before every
// data store, like Step.
func (c *CPU) refStep() (Cost, error) {
	if c.Halted {
		return Cost{}, nil
	}
	pc := c.Regs[isa.PC]
	in, err := c.decodeAt(pc)
	if err != nil {
		return Cost{}, err
	}
	if c.amenableAt(pc) {
		c.Stats.AmenableOps++
	}

	nvBefore := c.Mem.NVWrites
	nextPC, cycles, err := c.execute(in, pc)
	if err != nil {
		return Cost{}, err
	}
	c.Regs[isa.PC] = nextPC

	cost := Cost{Cycles: cycles, NVWrites: int(c.Mem.NVWrites - nvBefore)}
	if in.Op == isa.OpSkm {
		cost.NVWrites++ // the skim register is non-volatile
	}
	c.Stats.Instructions++
	c.Stats.Cycles += uint64(cycles)
	return cost, nil
}

// execute interprets one decoded instruction at pc and returns the next PC
// and the cycle cost. It does not advance PC or update Stats; refStep does.
func (c *CPU) execute(in isa.Instruction, pc uint32) (uint32, uint32, error) {
	cycles := in.Op.BaseCycles()
	nextPC := pc + isa.InstBytes
	var err error

	switch in.Op {
	case isa.OpNop:
	case isa.OpHalt:
		c.Halted = true
		nextPC = pc

	case isa.OpMov:
		c.Regs[in.Rd] = c.Regs[in.Rm]
	case isa.OpMovI:
		c.Regs[in.Rd] = uint32(in.Imm)
	case isa.OpMovTI:
		c.Regs[in.Rd] = c.Regs[in.Rd]&0xFFFF | uint32(in.Imm)<<16

	case isa.OpAdd:
		c.Regs[in.Rd] = c.Regs[in.Rn] + c.Regs[in.Rm]
	case isa.OpAddI:
		c.Regs[in.Rd] = c.Regs[in.Rn] + uint32(in.Imm)
	case isa.OpSub:
		c.Regs[in.Rd] = c.Regs[in.Rn] - c.Regs[in.Rm]
	case isa.OpSubI:
		c.Regs[in.Rd] = c.Regs[in.Rn] - uint32(in.Imm)
	case isa.OpAnd:
		c.Regs[in.Rd] = c.Regs[in.Rn] & c.Regs[in.Rm]
	case isa.OpAndI:
		c.Regs[in.Rd] = c.Regs[in.Rn] & uint32(in.Imm)
	case isa.OpOrr:
		c.Regs[in.Rd] = c.Regs[in.Rn] | c.Regs[in.Rm]
	case isa.OpOrrI:
		c.Regs[in.Rd] = c.Regs[in.Rn] | uint32(in.Imm)
	case isa.OpEor:
		c.Regs[in.Rd] = c.Regs[in.Rn] ^ c.Regs[in.Rm]
	case isa.OpEorI:
		c.Regs[in.Rd] = c.Regs[in.Rn] ^ uint32(in.Imm)
	case isa.OpLsl:
		c.Regs[in.Rd] = refShiftL(c.Regs[in.Rn], c.Regs[in.Rm])
	case isa.OpLslI:
		c.Regs[in.Rd] = refShiftL(c.Regs[in.Rn], uint32(in.Imm))
	case isa.OpLsr:
		c.Regs[in.Rd] = refShiftR(c.Regs[in.Rn], c.Regs[in.Rm])
	case isa.OpLsrI:
		c.Regs[in.Rd] = refShiftR(c.Regs[in.Rn], uint32(in.Imm))
	case isa.OpAsr:
		c.Regs[in.Rd] = refShiftAR(c.Regs[in.Rn], c.Regs[in.Rm])
	case isa.OpAsrI:
		c.Regs[in.Rd] = refShiftAR(c.Regs[in.Rn], uint32(in.Imm))

	case isa.OpCmp:
		c.refFlagsSub(c.Regs[in.Rn], c.Regs[in.Rm])
	case isa.OpCmpI:
		c.refFlagsSub(c.Regs[in.Rn], uint32(in.Imm))
	case isa.OpSubIS:
		a := c.Regs[in.Rn]
		c.refFlagsSub(a, uint32(in.Imm))
		c.Regs[in.Rd] = a - uint32(in.Imm)

	case isa.OpMul:
		a, b := c.Regs[in.Rn], c.Regs[in.Rm]
		prod, fast := c.mulWithMemo(a, b)
		if fast {
			cycles = 1
		}
		c.Regs[in.Rd] = prod

	case isa.OpMulASP1, isa.OpMulASP2, isa.OpMulASP3, isa.OpMulASP4, isa.OpMulASP8:
		// Rd = (Rd * Rm) << (bits * pos). Rm holds the subword value; the
		// iterative multiplier runs only `bits` steps.
		bits := in.Op.ASPBits()
		a, b := c.Regs[in.Rd], c.Regs[in.Rm]
		prod, fast := c.mulWithMemo(a, b)
		if fast {
			cycles = 1
		}
		c.Regs[in.Rd] = refShiftL(prod, uint32(bits)*uint32(in.Imm))

	case isa.OpAddASV4, isa.OpAddASV8, isa.OpAddASV16:
		c.Regs[in.Rd] = AddASV(c.Regs[in.Rd], c.Regs[in.Rm], in.Op.ASVLane())
	case isa.OpSubASV4, isa.OpSubASV8, isa.OpSubASV16:
		c.Regs[in.Rd] = SubASV(c.Regs[in.Rd], c.Regs[in.Rm], in.Op.ASVLane())

	case isa.OpLdr, isa.OpLdrh, isa.OpLdrb, isa.OpLdrX, isa.OpLdrhX, isa.OpLdrbX:
		addr := c.effAddr(in)
		var v uint32
		switch in.Op {
		case isa.OpLdr, isa.OpLdrX:
			v, err = c.Mem.LoadWord(addr)
		case isa.OpLdrh, isa.OpLdrhX:
			v, err = c.Mem.LoadHalf(addr)
		default:
			v, err = c.Mem.LoadByte(addr)
		}
		if err != nil {
			return 0, 0, err
		}
		c.Regs[in.Rd] = v

	case isa.OpStr, isa.OpStrh, isa.OpStrb, isa.OpStrX, isa.OpStrhX, isa.OpStrbX:
		addr := c.effAddr(in)
		size := 4
		switch in.Op {
		case isa.OpStrh, isa.OpStrhX:
			size = 2
		case isa.OpStrb, isa.OpStrbX:
			size = 1
		}
		if c.BeforeStore != nil {
			c.BeforeStore(addr, size)
		}
		switch size {
		case 4:
			err = c.Mem.StoreWord(addr, c.Regs[in.Rd])
		case 2:
			err = c.Mem.StoreHalf(addr, c.Regs[in.Rd])
		default:
			err = c.Mem.StoreByte(addr, c.Regs[in.Rd])
		}
		if err != nil {
			return 0, 0, err
		}

	case isa.OpB:
		nextPC = pc + uint32(in.Imm)
	case isa.OpBl:
		c.Regs[isa.LR] = pc + isa.InstBytes
		nextPC = pc + uint32(in.Imm)
	case isa.OpBx:
		nextPC = c.Regs[in.Rm]
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBgt, isa.OpBle, isa.OpBlo, isa.OpBhs:
		if c.refCond(in.Op) {
			nextPC = pc + uint32(in.Imm)
			cycles++ // pipeline refill on a taken branch
		}

	case isa.OpSkm:
		c.SkimTarget = uint32(in.Imm)
		c.SkimArmed = true
		// The caller accounts the skim register's NV write.

	default:
		return 0, 0, fmt.Errorf("cpu: unimplemented opcode %s at %#08x", in.Op.Name(), pc)
	}

	return nextPC, cycles, nil
}

// refFlagsSub sets NZCV for the subtraction a-b (ARM CMP semantics: C is
// the no-borrow flag).
func (c *CPU) refFlagsSub(a, b uint32) {
	r := a - b
	c.N = int32(r) < 0
	c.Z = r == 0
	c.C = a >= b
	c.V = (int32(a) < 0) != (int32(b) < 0) && (int32(r) < 0) != (int32(a) < 0)
}

// refCond evaluates a conditional branch's condition against the flags.
func (c *CPU) refCond(op isa.Opcode) bool {
	switch op {
	case isa.OpBeq:
		return c.Z
	case isa.OpBne:
		return !c.Z
	case isa.OpBlt:
		return c.N != c.V
	case isa.OpBge:
		return c.N == c.V
	case isa.OpBgt:
		return !c.Z && c.N == c.V
	case isa.OpBle:
		return c.Z || c.N != c.V
	case isa.OpBlo:
		return !c.C
	case isa.OpBhs:
		return c.C
	}
	return true
}

func refShiftL(v, by uint32) uint32 {
	if by >= 32 {
		return 0
	}
	return v << by
}

func refShiftR(v, by uint32) uint32 {
	if by >= 32 {
		return 0
	}
	return v >> by
}

func refShiftAR(v, by uint32) uint32 {
	if by >= 32 {
		by = 31
	}
	return uint32(int32(v) >> by)
}
