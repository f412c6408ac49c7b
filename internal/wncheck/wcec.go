package wncheck

import (
	"sort"

	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
)

// This file is the forward-progress / WCEC analyzer (WN201–WN203).
//
// Intermittent execution only makes progress if the code between two
// consecutive commit boundaries — skim points, plus program entry and halt —
// fits in one capacitor charge. The analyzer computes a static upper bound
// on the worst-case execution cycles (WCEC) of every such region:
//
//  1. every natural loop gets a trip bound, either inferred by simulating
//     the compiler's counted-loop idiom over the constant lattice, or taken
//     from a `.bound N` assembler annotation;
//  2. loops are collapsed innermost-first into summary supernodes, leaving
//     a DAG whose longest paths are computed by dynamic programming;
//  3. every boundary-to-boundary stretch becomes a region candidate, and
//     the program total is the longest entry-to-exit path.
//
// Cycle costs are the static worst case: memoization hits are not
// discounted, and every conditional branch pays the taken-branch pipeline
// refill. Saturating arithmetic in uint64 represents "unbounded" as
// infCycles.

// LoopBound records the analyzer's verdict for one natural loop.
type LoopBound struct {
	Head  uint32 `json:"head"`  // address of the loop header's first instruction
	Start uint32 `json:"start"` // lowest instruction address in the loop
	End   uint32 `json:"end"`   // highest instruction address in the loop
	// Bound is the maximum trip count; zero when Source is "unbounded".
	Bound uint64 `json:"bound,omitempty"`
	// Source is "inferred" (constant-lattice simulation), "annotated"
	// (.bound directive), or "unbounded".
	Source string `json:"source"`
	// Boundary reports whether the loop body contains a commit boundary
	// (a skim point), which keeps per-region bounds finite even when the
	// trip count is unknown.
	Boundary bool `json:"boundary"`
}

// ProgressRegion is the worst-case cycle count of one commit-delimited
// code region [Start, End] (absolute instruction addresses, inclusive).
type ProgressRegion struct {
	Start uint32 `json:"start"`
	End   uint32 `json:"end"`
	WCEC  uint64 `json:"wcec"`
}

// ProgressInfo is the outcome of the forward-progress analysis.
type ProgressInfo struct {
	Loops   []LoopBound      `json:"loops,omitempty"`
	Regions []ProgressRegion `json:"regions,omitempty"`
	// MaxRegionWCEC is the worst finite region bound; meaningful only when
	// RegionsFinite is true.
	MaxRegionWCEC uint64 `json:"max_region_wcec,omitempty"`
	// TotalWCEC bounds the whole program; meaningful only when TotalFinite.
	TotalWCEC uint64 `json:"total_wcec,omitempty"`
	// RegionsFinite is true when every commit-to-commit region has a finite
	// static bound: the program cannot livelock on a device whose per-charge
	// budget covers MaxRegionWCEC.
	RegionsFinite bool `json:"regions_finite"`
	// TotalFinite is true when the whole program has a finite bound.
	TotalFinite bool `json:"total_finite"`
	// Budget echoes Options.Budget (cycles per charge; zero = unchecked).
	Budget uint64 `json:"budget,omitempty"`
}

// infCycles is the saturating "unbounded" cycle count.
const infCycles = ^uint64(0)

func satAdd(a, b uint64) uint64 {
	if a == infCycles || b == infCycles || a+b < a {
		return infCycles
	}
	return a + b
}

func satMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a == infCycles || b == infCycles || a > infCycles/b {
		return infCycles
	}
	return a * b
}

// stretch is a boundary-free run of cycles with the code extent it covers
// (absolute instruction addresses, inclusive). The zero stretch is empty.
type stretch struct {
	cyc  uint64
	s, e uint32
	ext  bool
}

// seqS concatenates two stretches executed in sequence.
func seqS(a, b stretch) stretch {
	out := stretch{cyc: satAdd(a.cyc, b.cyc)}
	switch {
	case a.ext && b.ext:
		out.s, out.e, out.ext = a.s, b.e, true
	case a.ext:
		out.s, out.e, out.ext = a.s, a.e, true
	case b.ext:
		out.s, out.e, out.ext = b.s, b.e, true
	}
	return out
}

// maxS keeps the costlier of two alternative stretches.
func maxS(a, b stretch) stretch {
	if b.cyc > a.cyc {
		return b
	}
	return a
}

// scaleS repeats a stretch k times.
func scaleS(a stretch, k uint64) stretch {
	a.cyc = satMul(a.cyc, k)
	return a
}

// summary is the WCEC abstraction of a node (block, or collapsed loop):
// worst-case cycles through it, decomposed around commit boundaries.
//
// When hasB is false the node is boundary-free and freeIn, freeOut and
// through all equal total. When hasB is true: freeIn is the worst stretch
// from node entry to the first boundary, freeOut from the last boundary to
// node exit, inside the worst boundary-to-boundary stretch wholly inside,
// and through the worst boundary-free entry-to-exit path (meaningful only
// when allB is false, i.e. some path avoids every boundary).
type summary struct {
	total   stretch
	freeIn  stretch
	freeOut stretch
	through stretch
	inside  stretch
	hasB    bool
	allB    bool
}

// isCondBranch reports whether the opcode is a conditional branch, which
// pays the pipeline-refill cycle when taken (the static worst case).
func isCondBranch(op isa.Opcode) bool {
	switch op {
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge,
		isa.OpBgt, isa.OpBle, isa.OpBlo, isa.OpBhs:
		return true
	}
	return false
}

// worstCost is the static worst-case cycle cost of one instruction.
func worstCost(ins instr) uint64 {
	if !ins.ok {
		return 1
	}
	c := uint64(ins.in.Op.BaseCycles())
	if isCondBranch(ins.in.Op) {
		c++ // taken-branch pipeline refill
	}
	return c
}

// blockSummary computes the WCEC summary of one basic block. Skim points
// are the commit boundaries; the skim instruction's own cost is charged to
// the stretch it terminates.
func (c *checker) blockSummary(b *block) summary {
	var sum summary
	var cur, tot stretch
	for i := b.start; i < b.end; i++ {
		ins := c.ins[i]
		st := stretch{cyc: worstCost(ins), s: ins.addr, e: ins.addr, ext: true}
		cur = seqS(cur, st)
		tot = seqS(tot, st)
		if ins.ok && ins.in.Op == isa.OpSkm {
			if !sum.hasB {
				sum.hasB = true
				sum.freeIn = cur
			} else {
				sum.inside = maxS(sum.inside, cur)
			}
			cur = stretch{}
		}
	}
	sum.total = tot
	if sum.hasB {
		sum.allB = true
		sum.freeOut = cur
	} else {
		sum.freeIn, sum.freeOut, sum.through = tot, tot, tot
	}
	return sum
}

// wnode is one node of the collapsing WCEC graph: initially one basic
// block, later possibly a whole loop folded into a summary.
type wnode struct {
	id     int
	sum    summary
	succs  []int
	blocks []int // original block ids this node covers
	lo, hi uint32
}

// dagResult is the outcome of aggregating a DAG of nodes.
type dagResult struct {
	agg   summary
	cands []stretch // complete boundary-to-boundary region candidates
	ok    bool
}

// aggregateDAG folds the node summaries of a subgraph into one summary by
// longest-path dynamic programming in topological order. Edges into
// skipEntry (the loop back edges) are treated as subgraph exits; pass -1
// for a plain DAG. ok is false when a cycle remains (an uncollapsed loop).
func aggregateDAG(nodes map[int]*wnode, members []int, entry, skipEntry int) dagResult {
	inSet := make(map[int]bool, len(members))
	for _, id := range members {
		inSet[id] = true
	}
	succsOf := func(id int) []int {
		var out []int
		for _, s := range nodes[id].succs {
			if inSet[s] && s != skipEntry {
				out = append(out, s)
			}
		}
		return out
	}

	reach := map[int]bool{entry: true}
	queue := []int{entry}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, s := range succsOf(id) {
			if !reach[s] {
				reach[s] = true
				queue = append(queue, s)
			}
		}
	}

	indeg := map[int]int{}
	for id := range reach {
		indeg[id] += 0
		for _, s := range succsOf(id) {
			indeg[s]++
		}
	}
	var ready []int
	for id := range indeg {
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	sort.Ints(ready)
	var order []int
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		order = append(order, id)
		var newly []int
		for _, s := range succsOf(id) {
			indeg[s]--
			if indeg[s] == 0 {
				newly = append(newly, s)
			}
		}
		sort.Ints(newly)
		ready = append(ready, newly...)
	}
	if len(order) != len(reach) {
		return dagResult{}
	}

	// Per-node in-values: fin is the worst free stretch since the last
	// boundary (valid once some path crossed one), ein the worst free
	// stretch since subgraph entry with no boundary yet, tin the worst
	// total cycles from entry.
	type inVal struct {
		fin   stretch
		finOK bool
		ein   stretch
		einOK bool
		tin   uint64
	}
	in := make(map[int]*inVal, len(reach))
	for id := range reach {
		in[id] = &inVal{}
	}
	in[entry].einOK = true

	res := dagResult{ok: true}
	agg := &res.agg
	var lo, hi uint32
	extSet := false
	throughExists := false

	for _, id := range order {
		n := nodes[id]
		iv := in[id]
		if !extSet || n.lo < lo {
			lo = n.lo
		}
		if !extSet || n.hi > hi {
			hi = n.hi
		}
		extSet = true

		if n.sum.hasB {
			agg.hasB = true
			if iv.finOK {
				res.cands = append(res.cands, seqS(iv.fin, n.sum.freeIn))
			}
			if iv.einOK {
				agg.freeIn = maxS(agg.freeIn, seqS(iv.ein, n.sum.freeIn))
			}
		}
		if n.sum.inside.cyc > 0 || n.sum.inside.ext {
			res.cands = append(res.cands, n.sum.inside)
		}

		var outB stretch
		outBOK := false
		if n.sum.hasB {
			outB, outBOK = n.sum.freeOut, true
		}
		if iv.finOK && !n.sum.allB {
			outB, outBOK = maxS(outB, seqS(iv.fin, n.sum.through)), true
		}
		var outE stretch
		outEOK := false
		if iv.einOK && !n.sum.allB {
			outE, outEOK = seqS(iv.ein, n.sum.through), true
		}
		outT := satAdd(iv.tin, n.sum.total.cyc)

		succ := succsOf(id)
		isExit := len(succ) == 0
		for _, s := range nodes[id].succs {
			if !inSet[s] || (skipEntry >= 0 && s == skipEntry) {
				isExit = true
			}
		}
		if isExit {
			if outBOK {
				agg.freeOut = maxS(agg.freeOut, outB)
			}
			if outEOK {
				agg.through = maxS(agg.through, outE)
				throughExists = true
			}
			agg.total = maxS(agg.total, stretch{cyc: outT})
		}
		for _, s := range succ {
			sv := in[s]
			if outBOK {
				if !sv.finOK {
					sv.fin, sv.finOK = outB, true
				} else {
					sv.fin = maxS(sv.fin, outB)
				}
			}
			if outEOK {
				if !sv.einOK {
					sv.ein, sv.einOK = outE, true
				} else {
					sv.ein = maxS(sv.ein, outE)
				}
			}
			if outT > sv.tin {
				sv.tin = outT
			}
		}
	}

	agg.total.s, agg.total.e, agg.total.ext = lo, hi, extSet
	if agg.hasB {
		agg.allB = !throughExists
		for _, cd := range res.cands {
			agg.inside = maxS(agg.inside, cd)
		}
	} else {
		agg.freeIn, agg.freeOut, agg.through = agg.total, agg.total, agg.total
		agg.inside = stretch{}
	}
	return res
}

// loopSummary lifts a one-iteration body summary to the whole loop under a
// trip bound. lo..hi is the loop's code extent, used for unbounded results.
func loopSummary(it summary, bound uint64, known bool, lo, hi uint32) summary {
	inf := stretch{cyc: infCycles, s: lo, e: hi, ext: true}
	var out summary
	if !it.hasB {
		tot := inf
		if known {
			tot = scaleS(it.total, bound)
		}
		out.total = tot
		out.freeIn, out.freeOut, out.through = tot, tot, tot
		return out
	}
	out.hasB = true
	switch {
	case known:
		out.total = scaleS(it.total, bound)
		if it.allB {
			out.allB = true
			out.freeIn = it.freeIn
			out.freeOut = it.freeOut
			out.inside = it.inside
			if bound >= 2 {
				// Wraparound: last free stretch of one iteration plus the
				// first of the next.
				out.inside = maxS(out.inside, seqS(it.freeOut, it.freeIn))
			}
		} else {
			// Up to bound-1 boundary-free iterations may precede the first
			// boundary or follow the last one.
			out.freeIn = seqS(scaleS(it.through, bound-1), it.freeIn)
			out.freeOut = seqS(it.freeOut, scaleS(it.through, bound-1))
			out.through = scaleS(it.through, bound)
			out.inside = it.inside
			if bound >= 2 {
				wrap := seqS(seqS(it.freeOut, scaleS(it.through, bound-2)), it.freeIn)
				out.inside = maxS(out.inside, wrap)
			}
		}
	case it.allB:
		// Trip count unknown, but every iteration commits: the per-region
		// bounds survive even though the total is unbounded.
		out.allB = true
		out.total = inf
		out.freeIn = it.freeIn
		out.freeOut = it.freeOut
		out.inside = maxS(it.inside, seqS(it.freeOut, it.freeIn))
	default:
		// Unknown trips and boundary-free iterations: everything diverges.
		out.total = inf
		out.freeIn, out.freeOut, out.through, out.inside = inf, inf, inf, inf
	}
	return out
}

// condTaken evaluates a conditional branch after a compare of a against b,
// on the flags the CPU sets for it.
func condTaken(op isa.Opcode, a, b uint32) bool {
	n, z, cc, v := isa.SubFlags(a, b)
	switch op {
	case isa.OpBeq:
		return z
	case isa.OpBne:
		return !z
	case isa.OpBlt:
		return n != v
	case isa.OpBge:
		return n == v
	case isa.OpBgt:
		return !z && n == v
	case isa.OpBle:
		return z || n != v
	case isa.OpBlo:
		return !cc
	case isa.OpBhs:
		return cc
	}
	return true
}

// preheaderConst resolves the value of register r on entry to the loop:
// every out-of-loop predecessor of the header must leave r at the same
// statically known constant.
func (c *checker) preheaderConst(l loopInfo, set map[int]bool, r isa.Reg) (uint32, bool) {
	head := c.blocks[l.head]
	var val uint32
	have := false
	consider := func(rv regVal) bool {
		if !rv.known || (have && rv.v != val) {
			return false
		}
		val, have = rv.v, true
		return true
	}
	if l.head == 0 {
		es := newEntryState(c.opts.Mem)
		if !consider(es.regs[r]) {
			return 0, false
		}
	}
	for _, pid := range head.preds {
		if set[pid] {
			continue
		}
		pb := c.blocks[pid]
		if !pb.reachable {
			continue
		}
		if pid >= len(c.inStates) || !c.inStates[pid].valid {
			return 0, false
		}
		s := c.inStates[pid].clone()
		for i := pb.start; i < pb.end; i++ {
			c.step(&s, i, false)
		}
		if !consider(s.regs[r]) {
			return 0, false
		}
	}
	return val, have
}

// tripCap bounds the trip-count simulation; loops beyond it are treated as
// unprovable rather than iterated to exhaustion.
const tripCap = 1 << 20

// inferTrips recognizes the compiler's counted-loop idioms and simulates
// the counter to an exact trip count:
//
//	SUBIS ctr, ctr, #step ; B<cc> head     (down-counted do-while)
//	ADDI/SUBI ctr ; CMP(I) ctr, limit ; B<cc> head
//
// The loop must have a single latch ending in a conditional branch to the
// header whose fall-through leaves the loop, the counter must have exactly
// one in-loop definition, and its initial value must be a preheader
// constant.
func (c *checker) inferTrips(l loopInfo, set map[int]bool) (uint64, bool) {
	head := c.blocks[l.head]
	latch := -1
	for _, p := range head.preds {
		if set[p] {
			if latch >= 0 {
				return 0, false
			}
			latch = p
		}
	}
	if latch < 0 {
		return 0, false
	}
	lb := c.blocks[latch]
	last := lb.end - 1
	li := c.ins[last]
	if !li.ok || !isCondBranch(li.in.Op) || c.branchTargetIndex(last) != head.start {
		return 0, false
	}
	if lb.end >= len(c.ins) || set[c.blockOf[lb.end]] {
		return 0, false
	}
	for _, id := range l.blocks {
		b := c.blocks[id]
		for i := b.start; i < b.end; i++ {
			if !c.ins[i].ok || c.ins[i].in.Op == isa.OpBl {
				return 0, false
			}
		}
	}

	setter := -1
	for i := last - 1; i >= lb.start; i-- {
		switch c.ins[i].in.Op {
		case isa.OpCmp, isa.OpCmpI, isa.OpSubIS:
			setter = i
		}
		if setter >= 0 {
			break
		}
	}
	if setter < 0 {
		return 0, false
	}
	st := c.ins[setter].in
	br := li.in.Op

	defsOf := func(r isa.Reg) []int {
		var out []int
		for _, id := range l.blocks {
			b := c.blocks[id]
			for i := b.start; i < b.end; i++ {
				if d, ok := defOf(c.ins[i].in); ok && d == r {
					out = append(out, i)
				}
			}
		}
		return out
	}
	simulate := func(step func(v uint32) (a, b, next uint32), init uint32) (uint64, bool) {
		v := init
		var trips uint64
		for {
			trips++
			if trips > tripCap {
				return 0, false
			}
			a, b, next := step(v)
			v = next
			if !condTaken(br, a, b) {
				return trips, true
			}
		}
	}

	switch st.Op {
	case isa.OpSubIS:
		if st.Rd != st.Rn {
			return 0, false
		}
		ctr := st.Rd
		stepv := uint32(int32(st.Imm))
		if stepv == 0 {
			return 0, false
		}
		defs := defsOf(ctr)
		if len(defs) != 1 || defs[0] != setter {
			return 0, false
		}
		init, ok := c.preheaderConst(l, set, ctr)
		if !ok {
			return 0, false
		}
		return simulate(func(v uint32) (uint32, uint32, uint32) {
			return v, stepv, v - stepv
		}, init)

	case isa.OpCmpI, isa.OpCmp:
		ctr := st.Rn
		var limit uint32
		limKnown := false
		ctrIsA := true
		if st.Op == isa.OpCmpI {
			limit, limKnown = uint32(int32(st.Imm)), true
		} else {
			rnDefs, rmDefs := defsOf(st.Rn), defsOf(st.Rm)
			switch {
			case len(rnDefs) == 1 && len(rmDefs) == 0:
				ctr, ctrIsA = st.Rn, true
				limit, limKnown = c.preheaderConst(l, set, st.Rm)
			case len(rmDefs) == 1 && len(rnDefs) == 0:
				ctr, ctrIsA = st.Rm, false
				limit, limKnown = c.preheaderConst(l, set, st.Rn)
			default:
				return 0, false
			}
		}
		if !limKnown {
			return 0, false
		}
		defs := defsOf(ctr)
		if len(defs) != 1 {
			return 0, false
		}
		inc := defs[0]
		if c.blockOf[inc] != latch || inc >= setter {
			return 0, false
		}
		ii := c.ins[inc].in
		if ii.Rd != ctr || ii.Rn != ctr {
			return 0, false
		}
		var delta uint32
		switch ii.Op {
		case isa.OpAddI:
			delta = uint32(int32(ii.Imm))
		case isa.OpSubI:
			delta = -uint32(int32(ii.Imm))
		default:
			return 0, false
		}
		if delta == 0 {
			return 0, false
		}
		init, ok := c.preheaderConst(l, set, ctr)
		if !ok {
			return 0, false
		}
		return simulate(func(v uint32) (uint32, uint32, uint32) {
			nv := v + delta
			if ctrIsA {
				return nv, limit, nv
			}
			return limit, nv, nv
		}, init)
	}
	return 0, false
}

// runProgress is the forward-progress analysis driver. Requires the
// converged forward states from runForward.
func (c *checker) runProgress() {
	if !c.opts.Progress {
		return
	}
	p := &ProgressInfo{Budget: c.opts.Budget}
	c.progress = p
	if len(c.blocks) == 0 || !c.blocks[0].reachable {
		p.RegionsFinite, p.TotalFinite = true, true
		return
	}

	// Build the initial node graph over the reachable blocks.
	nodes := map[int]*wnode{}
	blockNode := make([]int, len(c.blocks))
	for i := range blockNode {
		blockNode[i] = -1
	}
	for _, b := range c.blocks {
		if !b.reachable {
			continue
		}
		n := &wnode{
			id:     b.id,
			sum:    c.blockSummary(b),
			blocks: []int{b.id},
			lo:     c.ins[b.start].addr,
			hi:     c.ins[b.end-1].addr,
		}
		seen := map[int]bool{}
		for _, s := range b.succs {
			if !seen[s] {
				seen[s] = true
				n.succs = append(n.succs, s)
			}
		}
		nodes[b.id] = n
		blockNode[b.id] = b.id
	}
	nextID := len(c.blocks)

	// Attach each .bound annotation to the innermost loop containing it.
	loopSize := make([]int, len(c.loops))
	for li, l := range c.loops {
		for _, id := range l.blocks {
			loopSize[li] += c.blocks[id].end - c.blocks[id].start
		}
	}
	annBound := map[int]uint64{}
	for addr, bnd := range c.prog.Bounds {
		if addr < mem.CodeBase || (addr-mem.CodeBase)%isa.InstBytes != 0 {
			continue
		}
		idx := int(addr-mem.CodeBase) / isa.InstBytes
		if idx >= len(c.ins) {
			continue
		}
		blk := c.blockOf[idx]
		best := -1
		for li, l := range c.loops {
			member := false
			for _, id := range l.blocks {
				if id == blk {
					member = true
				}
			}
			if !member {
				continue
			}
			if best < 0 || loopSize[li] < loopSize[best] ||
				(loopSize[li] == loopSize[best] && l.head < c.loops[best].head) {
				best = li
			}
		}
		if best >= 0 && bnd > annBound[best] {
			annBound[best] = bnd
		}
	}

	// Collapse loops innermost-first (fewest instructions first).
	jobs := make([]int, 0, len(c.loops))
	for li := range c.loops {
		jobs = append(jobs, li)
	}
	sort.Slice(jobs, func(i, j int) bool {
		if loopSize[jobs[i]] != loopSize[jobs[j]] {
			return loopSize[jobs[i]] < loopSize[jobs[j]]
		}
		return c.loops[jobs[i]].head < c.loops[jobs[j]].head
	})

	var cands []stretch
	collapsed := true
	for _, li := range jobs {
		l := c.loops[li]
		head := c.blocks[l.head]
		if !head.reachable {
			continue
		}
		set := make(map[int]bool, len(l.blocks))
		lo, hi := c.ins[head.start].addr, c.ins[head.start].addr
		boundary := false
		for _, id := range l.blocks {
			set[id] = true
			b := c.blocks[id]
			if a := c.ins[b.start].addr; a < lo {
				lo = a
			}
			if a := c.ins[b.end-1].addr; a > hi {
				hi = a
			}
			for i := b.start; i < b.end; i++ {
				if c.ins[i].ok && c.ins[i].in.Op == isa.OpSkm {
					boundary = true
				}
			}
		}

		bound, source := uint64(0), "unbounded"
		if b, ok := annBound[li]; ok {
			bound, source = b, "annotated"
		} else if t, ok := c.inferTrips(l, set); ok {
			bound, source = t, "inferred"
		}
		known := source != "unbounded"
		p.Loops = append(p.Loops, LoopBound{
			Head:     c.ins[head.start].addr,
			Start:    lo,
			End:      hi,
			Bound:    bound,
			Source:   source,
			Boundary: boundary,
		})
		if !known {
			if !boundary {
				c.reportRegion(CodeLivelock, Error, head.start, lo, hi,
					"loop at %#08x has no commit boundary inside and no finite trip bound; the region %#08x..%#08x can re-execute forever under intermittent power (add a skim point or a .bound directive)",
					c.ins[head.start].addr, lo, hi)
			} else {
				c.reportRegion(CodeLoopBound, Warning, head.start, lo, hi,
					"loop at %#08x: trip count is neither inferable from the constant lattice nor annotated; add `.bound N` to bound the total worst-case energy",
					c.ins[head.start].addr)
			}
		}

		memberSet := map[int]bool{}
		for _, id := range l.blocks {
			if blockNode[id] >= 0 {
				memberSet[blockNode[id]] = true
			}
		}
		entryNode := blockNode[l.head]
		okCollapse := entryNode >= 0
		for nid := range memberSet {
			for _, blk := range nodes[nid].blocks {
				if !set[blk] {
					okCollapse = false
				}
			}
		}
		if okCollapse {
			var nodeIDs []int
			for nid := range nodes {
				nodeIDs = append(nodeIDs, nid)
			}
			sort.Ints(nodeIDs)
			for _, nid := range nodeIDs {
				if memberSet[nid] {
					continue
				}
				for _, s := range nodes[nid].succs {
					if memberSet[s] && s != entryNode {
						okCollapse = false
					}
				}
			}
		}
		var dag dagResult
		if okCollapse {
			members := make([]int, 0, len(memberSet))
			for nid := range memberSet {
				members = append(members, nid)
			}
			sort.Ints(members)
			dag = aggregateDAG(nodes, members, entryNode, entryNode)
			okCollapse = dag.ok
		}
		if !okCollapse {
			collapsed = false
			c.reportRegion(CodeLoopBound, Warning, head.start, lo, hi,
				"loop at %#08x has irreducible or multi-entry control flow; no trip bound can be applied",
				c.ins[head.start].addr)
			continue
		}
		cands = append(cands, dag.cands...)

		sup := &wnode{id: nextID, sum: loopSummary(dag.agg, bound, known, lo, hi), lo: lo, hi: hi}
		nextID++
		memberIDs := make([]int, 0, len(memberSet))
		for nid := range memberSet {
			memberIDs = append(memberIDs, nid)
		}
		sort.Ints(memberIDs)
		seenSucc := map[int]bool{}
		for _, nid := range memberIDs {
			n := nodes[nid]
			sup.blocks = append(sup.blocks, n.blocks...)
			for _, s := range n.succs {
				if !memberSet[s] && !seenSucc[s] {
					seenSucc[s] = true
					sup.succs = append(sup.succs, s)
				}
			}
			delete(nodes, nid)
		}
		sort.Ints(sup.blocks)
		sort.Ints(sup.succs)
		nodes[sup.id] = sup
		for _, blk := range sup.blocks {
			blockNode[blk] = sup.id
		}
		var nodeIDs []int
		for nid := range nodes {
			nodeIDs = append(nodeIDs, nid)
		}
		sort.Ints(nodeIDs)
		for _, nid := range nodeIDs {
			n := nodes[nid]
			changed := false
			for i, s := range n.succs {
				if memberSet[s] {
					n.succs[i] = sup.id
					changed = true
				}
			}
			if changed {
				seen := map[int]bool{}
				var out []int
				for _, s := range n.succs {
					if !seen[s] {
						seen[s] = true
						out = append(out, s)
					}
				}
				n.succs = out
			}
		}
	}

	sort.Slice(p.Loops, func(i, j int) bool { return p.Loops[i].Head < p.Loops[j].Head })

	// Final longest-path pass over the collapsed graph.
	members := make([]int, 0, len(nodes))
	for nid := range nodes {
		members = append(members, nid)
	}
	sort.Ints(members)
	top := aggregateDAG(nodes, members, blockNode[0], -1)

	var finals []stretch
	certified := collapsed && top.ok
	if certified {
		cands = append(cands, top.cands...)
		finals = append(finals, cands...)
		// Program entry and halt act as commit boundaries.
		if top.agg.hasB {
			finals = append(finals, top.agg.freeIn, top.agg.freeOut)
			if !top.agg.allB {
				finals = append(finals, top.agg.through)
			}
		} else {
			finals = append(finals, top.agg.total)
		}
		p.RegionsFinite = true
		for _, s := range finals {
			if s.cyc == infCycles {
				p.RegionsFinite = false
			} else if p.RegionsFinite && s.cyc > p.MaxRegionWCEC {
				p.MaxRegionWCEC = s.cyc
			}
		}
		if !p.RegionsFinite {
			p.MaxRegionWCEC = 0
		}
		if top.agg.total.cyc != infCycles {
			p.TotalFinite = true
			p.TotalWCEC = top.agg.total.cyc
		}
	} else {
		finals = cands
	}

	// Publish the finite, extent-carrying regions, deduplicated by extent.
	best := map[[2]uint32]uint64{}
	for _, s := range finals {
		if s.cyc == 0 || s.cyc == infCycles || !s.ext {
			continue
		}
		k := [2]uint32{s.s, s.e}
		if s.cyc > best[k] {
			best[k] = s.cyc
		}
	}
	keys := make([][2]uint32, 0, len(best))
	for k := range best {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		p.Regions = append(p.Regions, ProgressRegion{Start: k[0], End: k[1], WCEC: best[k]})
	}

	// WN202: regions that cannot complete within the per-charge budget.
	if c.opts.Budget > 0 {
		imgEnd := mem.CodeBase + uint32(len(c.ins)*isa.InstBytes)
		for _, s := range finals {
			if s.cyc <= c.opts.Budget || !s.ext || s.e < mem.CodeBase || s.e >= imgEnd {
				continue
			}
			idx := int(s.e-mem.CodeBase) / isa.InstBytes
			if s.cyc == infCycles {
				c.reportRegion(CodeRegionBudget, Error, idx, s.s, s.e,
					"region %#08x..%#08x has unbounded worst-case cycles; no per-charge budget covers it",
					s.s, s.e)
			} else {
				c.reportRegion(CodeRegionBudget, Error, idx, s.s, s.e,
					"region %#08x..%#08x needs %d cycles in the worst case, exceeding the per-charge budget of %d",
					s.s, s.e, s.cyc, c.opts.Budget)
			}
		}
	}
}
