package cpu

import (
	"fmt"

	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
)

// StopReason tells why Run returned control to the caller.
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

// BatchResult summarizes one Run window.
type BatchResult struct {
	Cycles       uint64
	Instructions uint64
	Reason       StopReason
}

// MaxInstrCycles bounds the cycle cost of any single instruction (the
// 16-cycle iterative multiply; taken branches cost BaseCycles+1 ≤ 3).
// Batch schedulers use it to size safety slack: Run stops at the first
// instruction boundary that reaches its budget, so it overshoots by less
// than this.
const MaxInstrCycles = 16

// Run is the batched executor the runtimes use. It executes instructions
// until the accumulated cycle count reaches budget, the program halts or
// faults, an SKM arms the skim register, or (when a BeforeStore hook is
// installed) the next instruction would store into the non-volatile data
// region. A window overshoots its budget by at most MaxInstrCycles - 1.
// When costs is non-nil every instruction's Cost is appended so the caller
// can replay energy accounting per instruction.
//
// Run never calls BeforeStore. It returns StopStore *before* an NV-data
// store executes, and the caller runs that one instruction through Step,
// which calls the hook. Stores outside the NV data region execute inline
// without the hook — the runtimes in internal/intermittent only act on
// NV-data stores, so runtime-visible behavior is the same as calling the
// hook on every store.
//
// Every instruction executes through its decode-cache slot's closure
// (super.go), the only definition of the ISA's semantics. At each PC Run
// executes a fused superblock when one starts there, fits the remaining
// budget in the worst case, and no gate keeps it to single instructions;
// otherwise it executes that one slot. Gates on a block:
//   - a BeforeStore hook is installed and the block stores (the hook must
//     observe NV-data stores at instruction granularity via StopStore);
//   - the caller wants per-instruction costs and the block stores (store
//     costs carry NV-write counts);
//   - the caller wants costs, a memo table is installed and the block
//     multiplies (memoized multiplies have data-dependent cycles; without
//     a memo table a multiply's cost is static and the block's costs are
//     exact).
//
// A block executes only when it cannot cross the budget, so fusing never
// moves a window's stop instruction. The differential tests hold Run
// against an independent reference interpreter kept in the tests and
// against Run with fusion off.
func (c *CPU) Run(budget uint64, costs *[]Cost) (BatchResult, error) {
	return c.run(budget, costs, c.BeforeStore != nil, true)
}

// run is Run with the StopStore gate and fusion explicit. Step runs one
// instruction with both off, having called the hook itself.
func (c *CPU) run(budget uint64, costs *[]Cost, stopStores, fuse bool) (BatchResult, error) {
	var res BatchResult
	if c.Halted {
		res.Reason = StopHalt
		return res, nil
	}
	if err := c.ensureDecodeCache(); err != nil {
		res.Reason = StopFault
		return res, err
	}
	var blockAt []*transBlock
	if fuse {
		if c.trans == nil {
			c.buildTranslation()
		}
		blockAt = c.trans.blockAt
	}

	var (
		cache      = c.decodeCache
		m          = c.Mem
		regs       = &c.Regs
		wantCosts  = costs != nil
		gateStores = stopStores || wantCosts
		gateMuls   = wantCosts && c.Memo != nil
		dataEnd    = mem.DataBase + uint32(m.Config().DataBytes)
		// Counts accumulate in scalar locals and flush to res and c.Stats
		// at the single exit below.
		cycAcc, instrAcc, amenAcc uint64
		reason                    = StopBudget
		fault                     error
	)

	// pc mirrors regs[isa.PC], which always holds the address of the next
	// instruction: a closure reading PC as an operand sees its own address.
	pc := regs[isa.PC]
loop:
	for cycAcc < budget {
		slot := (pc - mem.CodeBase) / isa.InstBytes
		if pc%isa.InstBytes != 0 || slot >= uint32(len(cache)) {
			// Out of code memory or misaligned: decodeAt builds the precise
			// fault message.
			_, fault = c.decodeAt(pc)
			reason = StopFault
			break
		}

		var tb *transBlock
		if slot < uint32(len(blockAt)) {
			tb = blockAt[slot]
		}
		if tb != nil && cycAcc+tb.maxCycles <= budget && !(gateStores && tb.hasStore || gateMuls && tb.hasMul) {
			// Execute the block — and when it is a self-loop (its terminator
			// branches back to its own head), keep iterating without
			// repeating the slot lookup and entry gates. Completed
			// executions accumulate in a local counter and are counted
			// once the dispatch ends.
			runs := uint64(0)
			faultIdx := -1
			for {
				for i, f := range tb.fns {
					if !f(c) {
						faultIdx = i
						break
					}
				}
				if faultIdx >= 0 {
					break
				}
				cycAcc += tb.bodyCycles
				if tb.hasMul {
					cycAcc -= c.sbAdj
					c.sbAdj = 0
				}
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
			instrAcc += runs * tb.instrs
			amenAcc += runs * tb.amen
			if faultIdx >= 0 {
				// A body memory access faulted at index faultIdx. Account the
				// executed prefix from the decode cache, plus the faulting
				// instruction's amenable mark (tallied before executing, as
				// for a single slot), and leave PC at the faulting
				// instruction.
				for i := 0; i <= faultIdx; i++ {
					d := &cache[int(slot)+i]
					if d.amen {
						amenAcc++
					}
					if i < faultIdx {
						cycAcc += uint64(d.cycles)
					}
				}
				cycAcc -= c.sbAdj
				c.sbAdj = 0
				if wantCosts {
					*costs = append(*costs, tb.costs[:faultIdx]...)
				}
				instrAcc += uint64(faultIdx)
				pc = tb.startPC + uint32(faultIdx)*isa.InstBytes
				regs[isa.PC] = pc
				reason, fault = StopFault, c.sbErr
				c.sbErr = nil
				break loop
			}
			regs[isa.PC] = pc
			continue
		}

		// One instruction through its slot's closure.
		d := &cache[slot]
		op := d.in.Op
		if !op.Valid() {
			_, fault = c.decodeAt(pc)
			reason = StopFault
			break
		}
		if stopStores && op.IsStore() {
			if addr := c.effAddr(d.in); addr >= mem.DataBase && addr < dataEnd {
				reason = StopStore
				break
			}
		}
		if d.amen {
			amenAcc++
		}
		var nvBefore uint64
		if wantCosts {
			nvBefore = m.NVWrites
		}
		cycles := d.cycles
		nextPC := pc + isa.InstBytes
		switch {
		case d.exec != nil:
			if !d.exec(c) {
				reason, fault = StopFault, c.sbErr
				c.sbErr = nil
				break loop
			}
			if c.sbAdj != 0 {
				cycles -= uint32(c.sbAdj)
				c.sbAdj = 0
			}
		case d.term != nil:
			nextPC, cycles = d.term(c)
		case op == isa.OpHalt:
			c.Halted = true
			nextPC = pc
			reason = StopHalt
		case op == isa.OpSkm:
			c.SkimTarget = uint32(d.in.Imm)
			c.SkimArmed = true
			reason = StopSkim
		default:
			reason, fault = StopFault, fmt.Errorf("cpu: unimplemented opcode %s at %#08x", op.Name(), pc)
			break loop
		}
		regs[isa.PC] = nextPC
		pc = nextPC

		cycAcc += uint64(cycles)
		instrAcc++
		if wantCosts {
			nv := int(m.NVWrites - nvBefore)
			if op == isa.OpSkm {
				nv++ // the skim register is non-volatile
			}
			*costs = append(*costs, Cost{Cycles: cycles, NVWrites: nv})
		}
		if reason != StopBudget {
			break // HALT or SKM, counted above
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
