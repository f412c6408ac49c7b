package cpu

import (
	"fmt"

	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
)

// Snapshot is the volatile architectural state captured by a checkpoint: the
// register file (including PC) and the condition flags.
type Snapshot struct {
	Regs [isa.NumRegs]uint32
	N    bool
	Z    bool
	C    bool
	V    bool
}

// Cost reports what one executed instruction consumed.
type Cost struct {
	Cycles   uint32
	NVWrites int // non-volatile data writes performed (energy surcharge)
}

// Stats aggregates execution statistics.
type Stats struct {
	Instructions uint64
	Cycles       uint64
	AmenableOps  uint64 // dynamic instructions at WN-amenable PCs
}

// CPU is the simulated core. It executes decoded instructions against a
// Memory under the M0+ cost model. The intermittent runtimes drive it
// through Run (windows of instructions, fused into superblocks where they
// can be) and Step (one instruction through the same loop, with the
// BeforeStore hook), paying the returned Cost into the energy supply.
type CPU struct {
	Regs [isa.NumRegs]uint32
	// Condition flags, set only by CMP/CMPI.
	N, Z, C, V bool

	Mem    *mem.Memory
	Halted bool

	// Skim register (Section III-C): a dedicated non-volatile register
	// holding the restore target armed by the SKM instruction. Survives
	// power outages by construction.
	SkimTarget uint32
	SkimArmed  bool

	// Memo is the optional multiplier memoization table with zero skipping.
	// Nil disables memoization (the paper's default configuration).
	Memo *MemoTable

	// BeforeStore, when non-nil, runs before every data store Step
	// executes, with the target address and size. The Clank runtime uses
	// it to checkpoint ahead of idempotency-violating writes. Run never
	// invokes it: it stops ahead of any store into the non-volatile data
	// region instead (StopStore), so the caller can Step exactly those
	// stores.
	BeforeStore func(addr uint32, size int)

	Stats Stats

	// amenable marks WN-amenable instruction slots as a bitset indexed by
	// (PC-CodeBase)/InstBytes — a single shifted load per executed
	// instruction instead of a map probe.
	amenable []uint64

	decodeCache []decoded     // lazily built per program image
	decodeErrs  map[int]error // slot -> original isa.Decode failure
	trans       *translation  // lazily built superblock translation
	sbErr       error         // fault raised inside a slot closure
	sbAdj       uint64        // memo fast-hit cycle discount; zero between instructions
}

// decoded is one predecoded instruction slot: the decoded form, its cycle
// cost, and the closure that executes it, so the hot loop never re-derives
// any of them. HALT, SKM and invalid slots have neither closure.
type decoded struct {
	in     isa.Instruction
	cycles uint32 // base cost; a branch's worst case (taken)
	amen   bool   // slot carries the compiler's amenable mark

	exec func(*CPU) bool             // straight-line instruction (buildBodyFn)
	term func(*CPU) (uint32, uint32) // branch (buildTerm)
}

// New builds a CPU over the given memory with PC at the code base.
func New(m *mem.Memory) *CPU {
	c := &CPU{Mem: m}
	c.Regs[isa.PC] = mem.CodeBase
	c.Regs[isa.SP] = mem.SRAMBase + uint32(m.Config().SRAMBytes)
	return c
}

// Reset returns the core to the boot state: PC at the code base, SP at the
// top of SRAM, flags cleared, halt cleared. The skim register is
// non-volatile and therefore NOT cleared here; use DisarmSkim explicitly.
func (c *CPU) Reset() {
	c.Regs = [isa.NumRegs]uint32{}
	c.Regs[isa.PC] = mem.CodeBase
	c.Regs[isa.SP] = mem.SRAMBase + uint32(c.Mem.Config().SRAMBytes)
	c.N, c.Z, c.C, c.V = false, false, false, false
	c.Halted = false
}

// DisarmSkim clears the non-volatile skim register. The runtime calls this
// after consuming a skim target on restore, and the harness before starting
// a fresh input.
func (c *CPU) DisarmSkim() {
	c.SkimArmed = false
	c.SkimTarget = 0
}

// Snapshot captures the volatile architectural state for a checkpoint.
func (c *CPU) Snapshot() Snapshot {
	return Snapshot{Regs: c.Regs, N: c.N, Z: c.Z, C: c.C, V: c.V}
}

// Restore reinstates checkpointed state.
func (c *CPU) Restore(s Snapshot) {
	c.Regs = s.Regs
	c.N, c.Z, c.C, c.V = s.N, s.Z, s.C, s.V
	c.Halted = false
}

// PowerLoss models the loss of volatile core state at a brown-out: the
// register file and flags are destroyed, and the (volatile) memo table is
// invalidated. Non-volatile state — the skim register — survives.
func (c *CPU) PowerLoss() {
	c.Regs = [isa.NumRegs]uint32{}
	c.N, c.Z, c.C, c.V = false, false, false, false
	if c.Memo != nil {
		c.Memo.Invalidate()
	}
}

// SetAmenablePCs installs the instruction addresses the WN compiler marked
// as amenable to subword pipelining or vectorization; executions at these
// PCs are tallied for Table I. Nil or empty clears the set.
func (c *CPU) SetAmenablePCs(pcs []uint32) {
	if len(pcs) == 0 {
		c.amenable = nil
	} else {
		slots := c.Mem.Config().CodeBytes / isa.InstBytes
		c.amenable = make([]uint64, (slots+63)/64)
		for _, pc := range pcs {
			slot := int(pc-mem.CodeBase) / isa.InstBytes
			if slot >= 0 && slot < slots {
				c.amenable[slot/64] |= 1 << (slot % 64)
			}
		}
	}
	// The decode cache mirrors the bitset per slot so the batched loop pays
	// one flag test instead of a shifted bitset probe; re-annotate if built.
	for i := range c.decodeCache {
		c.decodeCache[i].amen = c.amenableAt(mem.CodeBase + uint32(i*isa.InstBytes))
	}
	// Superblock aggregates bake the amenable counts in; rebuild lazily.
	c.trans = nil
}

// amenableAt reports whether pc carries the compiler's amenable mark. The
// caller guarantees pc is inside code memory (decode has succeeded).
func (c *CPU) amenableAt(pc uint32) bool {
	if c.amenable == nil {
		return false
	}
	slot := (pc - mem.CodeBase) / isa.InstBytes
	w := slot >> 6
	return int(w) < len(c.amenable) && c.amenable[w]&(1<<(slot&63)) != 0
}

// ensureDecodeCache predecodes the loaded program image once. Undecodable
// words get an invalid-opcode sentinel, with the original decode failure
// kept in decodeErrs so a later fault reports the cause. Only the program
// image is decoded and cached — code memory past it is zeroed by
// LoadProgram, and decodeAt recovers the zero word's decode error lazily if
// execution ever falls off the program's end.
func (c *CPU) ensureDecodeCache() error {
	if c.decodeCache != nil {
		return nil
	}
	n := c.Mem.Config().CodeBytes / isa.InstBytes
	prog := (c.Mem.ProgramBytes() + isa.InstBytes - 1) / isa.InstBytes
	if prog > n {
		prog = n
	}
	cache := make([]decoded, prog)
	errs := make(map[int]error)
	for i := 0; i < prog; i++ {
		w, err := c.Mem.FetchWord(mem.CodeBase + uint32(i*isa.InstBytes))
		if err != nil {
			return err
		}
		in, err := isa.Decode(isa.Word(w))
		if err != nil {
			// Executing this slot faults with err as the cause.
			cache[i] = decoded{in: isa.Instruction{Op: isa.Opcode(0xFF)}}
			errs[i] = err
			continue
		}
		pc := mem.CodeBase + uint32(i*isa.InstBytes)
		d := decoded{in: in, cycles: in.Op.BaseCycles(), amen: c.amenableAt(pc), exec: buildBodyFn(in)}
		if term, worst := buildTerm(in, pc); term != nil {
			d.term, d.cycles = term, worst
		}
		cache[i] = d
	}
	c.decodeCache, c.decodeErrs = cache, errs
	return nil
}

func (c *CPU) decodeAt(pc uint32) (isa.Instruction, error) {
	if pc%isa.InstBytes != 0 {
		return isa.Instruction{}, fmt.Errorf("cpu: misaligned PC %#08x", pc)
	}
	if err := c.ensureDecodeCache(); err != nil {
		return isa.Instruction{}, err
	}
	if pc < mem.CodeBase || pc-mem.CodeBase >= uint32(c.Mem.Config().CodeBytes) {
		return isa.Instruction{}, fmt.Errorf("cpu: PC %#08x outside code memory", pc)
	}
	idx := int(pc-mem.CodeBase) / isa.InstBytes
	if idx >= len(c.decodeCache) {
		// Past the decoded program image: decode the raw word (zeroed by
		// LoadProgram unless the program wrote over it) so the fault names
		// the real cause.
		if w, ferr := c.Mem.FetchWord(pc); ferr == nil {
			if _, derr := isa.Decode(isa.Word(w)); derr != nil {
				return isa.Instruction{}, fmt.Errorf("cpu: illegal instruction at %#08x: %v", pc, derr)
			}
		}
		return isa.Instruction{}, fmt.Errorf("cpu: illegal instruction at %#08x", pc)
	}
	in := c.decodeCache[idx].in
	if !in.Op.Valid() {
		if derr := c.decodeErrs[idx]; derr != nil {
			return isa.Instruction{}, fmt.Errorf("cpu: illegal instruction at %#08x: %v", pc, derr)
		}
		return isa.Instruction{}, fmt.Errorf("cpu: illegal instruction at %#08x", pc)
	}
	return in, nil
}

// setFlagsSub sets NZCV for the subtraction a-b, as CMP does.
func (c *CPU) setFlagsSub(a, b uint32) {
	c.N, c.Z, c.C, c.V = isa.SubFlags(a, b)
}

// Step executes one instruction through Run's loop (a one-cycle budget, no
// fusion). It returns the cost of the instruction and a non-nil error on a
// fault (illegal instruction, bad memory access). A halted CPU returns a
// zero cost.
//
// Unlike Run, Step never stops ahead of a store: it calls BeforeStore with
// the target address and width of every data store, NV or not, before the
// store executes.
func (c *CPU) Step() (Cost, error) {
	if c.BeforeStore != nil && !c.Halted {
		// A decode failure is left for run, which reports it.
		if in, err := c.decodeAt(c.Regs[isa.PC]); err == nil && in.Op.IsStore() {
			c.BeforeStore(c.effAddr(in), in.Op.AccessBytes())
		}
	}
	nv := c.Mem.NVWrites
	res, err := c.run(1, nil, false, false)
	if err != nil {
		return Cost{}, err
	}
	cost := Cost{Cycles: uint32(res.Cycles), NVWrites: int(c.Mem.NVWrites - nv)}
	if res.Reason == StopSkim {
		cost.NVWrites++ // the skim register is non-volatile
	}
	return cost, nil
}

// mulWithMemo computes a*b through zero skipping and the memo table when
// enabled. fast reports a single-cycle result.
func (c *CPU) mulWithMemo(a, b uint32) (prod uint32, fast bool) {
	if c.Memo == nil {
		return a * b, false
	}
	if p, hit := c.Memo.Lookup(a, b); hit {
		return p, true
	}
	p := a * b
	c.Memo.Insert(a, b, p)
	return p, false
}

func (c *CPU) effAddr(in isa.Instruction) uint32 {
	if in.Op.HasRm() {
		return c.Regs[in.Rn] + c.Regs[in.Rm]
	}
	return c.Regs[in.Rn] + uint32(in.Imm)
}
