package cpu

import (
	"fmt"

	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
)

// StopReason tells why RunUntil returned control to the caller.
type StopReason int

const (
	// StopBudget: the accumulated cycle count reached the budget.
	StopBudget StopReason = iota
	// StopHalt: the program executed HALT (or the CPU was already halted).
	StopHalt
	// StopStore: the next instruction is a store into the non-volatile data
	// region and a BeforeStore hook is installed; the caller must execute it
	// through Step so the hook observes it.
	StopStore
	// StopSkim: an SKM instruction just executed. Callers that react to
	// skim-point arming (anytime harnesses) see it at the exact instruction
	// boundary that armed it.
	StopSkim
	// StopFault: execution faulted; the accompanying error has the cause.
	StopFault
)

// BatchResult summarizes one RunUntil window.
type BatchResult struct {
	Cycles       uint64
	Instructions uint64
	Reason       StopReason
}

// MaxInstrCycles bounds the cycle cost of any single instruction (the
// 16-cycle iterative multiply; taken branches cost BaseCycles+1 ≤ 3).
// Batch schedulers use it to size safety slack: RunUntil stops at the first
// instruction that reaches its budget, so it overshoots by less than this.
const MaxInstrCycles = 16

// RunUntil is the per-instruction interpreter: it executes instructions in
// a tight loop — no per-step call overhead — until the accumulated cycle
// count reaches budget, the program halts or faults, an SKM arms the skim
// register, or (when a BeforeStore hook is installed) the next instruction
// would store into the non-volatile data region. When costs is non-nil
// every instruction's Cost is appended so the caller can replay energy
// accounting per instruction.
//
// RunUntil never calls BeforeStore. It returns StopStore *before* an
// NV-data store executes, and the caller runs that one instruction through
// Step, which calls the hook. Stores outside the NV data region execute
// inline without the hook — the runtimes in internal/intermittent only act
// on NV-data stores, so runtime-visible behavior is the same as calling the
// hook on every store. The differential tests check this loop against an
// independent reference interpreter kept in the tests.
//
// Run gives the same results through fused superblocks; RunUntil is the
// interpreter it falls back on for the blocks it cannot fuse.
func (c *CPU) RunUntil(budget uint64, costs *[]Cost) (BatchResult, error) {
	return c.runUntil(budget, costs, c.BeforeStore != nil, nil)
}

// runUntil is RunUntil with the StopStore gate explicit and a resume
// point: stopStores stops ahead of NV-data stores, and a non-nil resume
// also ends the loop, with StopBudget, once PC reaches a block Run can
// fuse. Step passes false, having called the hook itself.
func (c *CPU) runUntil(budget uint64, costs *[]Cost, stopStores bool, resume *resumeAt) (BatchResult, error) {
	var res BatchResult
	if c.Halted {
		res.Reason = StopHalt
		return res, nil
	}
	if err := c.ensureDecodeCache(); err != nil {
		res.Reason = StopFault
		return res, err
	}

	var (
		cache = c.decodeCache
		memo  = c.Memo != nil
		m     = c.Mem
		regs  = &c.Regs
		// Cycle and instruction counts accumulate in scalar locals (so they
		// stay in registers through the loop) and flush to res and c.Stats
		// at the single exit below; OpCount and AmenableOps update in place.
		cycAcc, instrAcc, amenAcc uint64
		reason                    = StopBudget
		fault                     error
		dataEnd                   = mem.DataBase + uint32(m.Config().DataBytes)
	)

	// pc mirrors regs[isa.PC] in a local: the register-file slot is still
	// stored every instruction (programs may read PC as an operand), but the
	// loop never reloads it.
	pc := regs[isa.PC]
	for cycAcc < budget {
		slot := (pc - mem.CodeBase) / isa.InstBytes
		if pc%isa.InstBytes != 0 || slot >= uint32(len(cache)) {
			// Out of code memory or misaligned: decodeAt builds the precise
			// fault message.
			_, fault = c.decodeAt(pc)
			reason = StopFault
			break
		}
		d := cache[slot]
		in := d.in
		op := in.Op
		if !op.Valid() {
			_, fault = c.decodeAt(pc)
			reason = StopFault
			break
		}
		if stopStores && op.IsStore() {
			if addr := c.effAddr(in); addr >= mem.DataBase && addr < dataEnd {
				reason = StopStore
				break
			}
		}
		if d.amen {
			amenAcc++
		}

		var nvBefore uint64
		if costs != nil {
			nvBefore = m.NVWrites
		}

		cycles := d.cycles
		nextPC := pc + isa.InstBytes
		var err error

		switch op {
		case isa.OpNop:
		case isa.OpHalt:
			c.Halted = true
			nextPC = pc

		case isa.OpMov:
			regs[in.Rd] = regs[in.Rm]
		case isa.OpMovI:
			regs[in.Rd] = uint32(in.Imm)
		case isa.OpMovTI:
			regs[in.Rd] = regs[in.Rd]&0xFFFF | uint32(in.Imm)<<16

		case isa.OpAdd:
			regs[in.Rd] = regs[in.Rn] + regs[in.Rm]
		case isa.OpAddI:
			regs[in.Rd] = regs[in.Rn] + uint32(in.Imm)
		case isa.OpSub:
			regs[in.Rd] = regs[in.Rn] - regs[in.Rm]
		case isa.OpSubI:
			regs[in.Rd] = regs[in.Rn] - uint32(in.Imm)
		case isa.OpAnd:
			regs[in.Rd] = regs[in.Rn] & regs[in.Rm]
		case isa.OpAndI:
			regs[in.Rd] = regs[in.Rn] & uint32(in.Imm)
		case isa.OpOrr:
			regs[in.Rd] = regs[in.Rn] | regs[in.Rm]
		case isa.OpOrrI:
			regs[in.Rd] = regs[in.Rn] | uint32(in.Imm)
		case isa.OpEor:
			regs[in.Rd] = regs[in.Rn] ^ regs[in.Rm]
		case isa.OpEorI:
			regs[in.Rd] = regs[in.Rn] ^ uint32(in.Imm)
		case isa.OpLsl:
			regs[in.Rd] = shiftL(regs[in.Rn], regs[in.Rm])
		case isa.OpLslI:
			regs[in.Rd] = shiftL(regs[in.Rn], uint32(in.Imm))
		case isa.OpLsr:
			regs[in.Rd] = shiftR(regs[in.Rn], regs[in.Rm])
		case isa.OpLsrI:
			regs[in.Rd] = shiftR(regs[in.Rn], uint32(in.Imm))
		case isa.OpAsr:
			regs[in.Rd] = shiftAR(regs[in.Rn], regs[in.Rm])
		case isa.OpAsrI:
			regs[in.Rd] = shiftAR(regs[in.Rn], uint32(in.Imm))

		case isa.OpCmp:
			c.setFlagsSub(regs[in.Rn], regs[in.Rm])
		case isa.OpCmpI:
			c.setFlagsSub(regs[in.Rn], uint32(in.Imm))
		case isa.OpSubIS:
			a := regs[in.Rn]
			c.setFlagsSub(a, uint32(in.Imm))
			regs[in.Rd] = a - uint32(in.Imm)

		case isa.OpMul:
			a, b := regs[in.Rn], regs[in.Rm]
			prod := a * b
			if memo {
				var fast bool
				prod, fast = c.mulWithMemo(a, b)
				if fast {
					cycles = 1
				}
			}
			regs[in.Rd] = prod

		case isa.OpMulASP1, isa.OpMulASP2, isa.OpMulASP3, isa.OpMulASP4, isa.OpMulASP8:
			bits := op.ASPBits()
			a, b := regs[in.Rd], regs[in.Rm]
			prod := a * b
			if memo {
				var fast bool
				prod, fast = c.mulWithMemo(a, b)
				if fast {
					cycles = 1
				}
			}
			regs[in.Rd] = shiftL(prod, uint32(bits)*uint32(in.Imm))

		case isa.OpAddASV4, isa.OpAddASV8, isa.OpAddASV16:
			regs[in.Rd] = AddASV(regs[in.Rd], regs[in.Rm], op.ASVLane())
		case isa.OpSubASV4, isa.OpSubASV8, isa.OpSubASV16:
			regs[in.Rd] = SubASV(regs[in.Rd], regs[in.Rm], op.ASVLane())

		case isa.OpLdr, isa.OpLdrX:
			addr := regs[in.Rn] + uint32(in.Imm)
			if op == isa.OpLdrX {
				addr = regs[in.Rn] + regs[in.Rm]
			}
			if v, ok := m.TryLoadWord(addr); ok {
				regs[in.Rd] = v
			} else if v, lerr := m.LoadWord(addr); lerr != nil {
				err = lerr
			} else {
				regs[in.Rd] = v
			}
		case isa.OpLdrh, isa.OpLdrhX:
			addr := regs[in.Rn] + uint32(in.Imm)
			if op == isa.OpLdrhX {
				addr = regs[in.Rn] + regs[in.Rm]
			}
			if v, ok := m.TryLoadHalf(addr); ok {
				regs[in.Rd] = v
			} else if v, lerr := m.LoadHalf(addr); lerr != nil {
				err = lerr
			} else {
				regs[in.Rd] = v
			}
		case isa.OpLdrb, isa.OpLdrbX:
			addr := regs[in.Rn] + uint32(in.Imm)
			if op == isa.OpLdrbX {
				addr = regs[in.Rn] + regs[in.Rm]
			}
			if v, ok := m.TryLoadByte(addr); ok {
				regs[in.Rd] = v
			} else if v, lerr := m.LoadByte(addr); lerr != nil {
				err = lerr
			} else {
				regs[in.Rd] = v
			}

		case isa.OpStr, isa.OpStrX:
			addr := regs[in.Rn] + uint32(in.Imm)
			if op == isa.OpStrX {
				addr = regs[in.Rn] + regs[in.Rm]
			}
			if !m.TryStoreWord(addr, regs[in.Rd]) {
				err = m.StoreWord(addr, regs[in.Rd])
			}
		case isa.OpStrh, isa.OpStrhX:
			addr := regs[in.Rn] + uint32(in.Imm)
			if op == isa.OpStrhX {
				addr = regs[in.Rn] + regs[in.Rm]
			}
			if !m.TryStoreHalf(addr, regs[in.Rd]) {
				err = m.StoreHalf(addr, regs[in.Rd])
			}
		case isa.OpStrb, isa.OpStrbX:
			addr := regs[in.Rn] + uint32(in.Imm)
			if op == isa.OpStrbX {
				addr = regs[in.Rn] + regs[in.Rm]
			}
			if !m.TryStoreByte(addr, regs[in.Rd]) {
				err = m.StoreByte(addr, regs[in.Rd])
			}

		case isa.OpB:
			nextPC = pc + uint32(in.Imm)
		case isa.OpBl:
			regs[isa.LR] = pc + isa.InstBytes
			nextPC = pc + uint32(in.Imm)
		case isa.OpBx:
			nextPC = regs[in.Rm]
		case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBgt, isa.OpBle, isa.OpBlo, isa.OpBhs:
			if c.condTrue(op) {
				nextPC = pc + uint32(in.Imm)
				cycles++ // pipeline refill on a taken branch
			}

		case isa.OpSkm:
			c.SkimTarget = uint32(in.Imm)
			c.SkimArmed = true
			// nv accounting below covers the skim register's NV write.

		default:
			err = fmt.Errorf("cpu: unimplemented opcode %s at %#08x", op.Name(), pc)
		}
		if err != nil {
			reason = StopFault
			fault = err
			break
		}
		regs[isa.PC] = nextPC
		pc = nextPC

		c.Stats.OpCount[op]++
		cycAcc += uint64(cycles)
		instrAcc++
		if costs != nil {
			nv := int(m.NVWrites - nvBefore)
			if op == isa.OpSkm {
				nv++ // the skim register is non-volatile
			}
			*costs = append(*costs, Cost{Cycles: cycles, NVWrites: nv})
		}

		// Only OpHalt sets c.Halted inside the loop, so an opcode compare
		// (already in a register) replaces the flag load.
		if op == isa.OpHalt {
			reason = StopHalt
			break
		}
		if op == isa.OpSkm {
			reason = StopSkim
			break
		}
		if resume != nil && resume.fusable(pc) {
			break
		}
	}
	res.Cycles = cycAcc
	res.Instructions = instrAcc
	res.Reason = reason
	c.Stats.Cycles += cycAcc
	c.Stats.Instructions += instrAcc
	c.Stats.AmenableOps += amenAcc
	return res, fault
}
