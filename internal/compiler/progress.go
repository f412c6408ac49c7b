package compiler

import "fmt"

// Progress-embedded lowering (the Stateful-CNN idea, adapted to the WN
// pipeline): instead of fissioning an anytime kernel into one pass per
// subword — which commits every output element once per pass and needs the
// runtime to persist where it stopped — the kernel is fused into a single
// pass in which every output element is computed to its full (possibly
// truncated, see Options.MaxPasses) precision in registers and stored
// exactly once, tile by tile. The harness pre-fills the output array with a
// reserved sentinel, and the emitted prologue scans each tile's marker
// element (the one its iteration stores last) for that sentinel to find the
// resume frontier. Progress therefore lives intrinsically in the committed
// output features: a restart-from-entry runtime resumes bit-exactly with
// zero NVM writes outside the output region.

// compileProgress lowers a kernel under Options.ProgressEmbed.
func compileProgress(k *Kernel, opts Options) (*Compiled, error) {
	pi := k.Progress
	if pi == nil {
		return nil, fmt.Errorf("compiler: %s: ProgressEmbed requires Kernel.Progress", k.Name)
	}
	if opts.VectorLoads {
		return nil, fmt.Errorf("compiler: %s: ProgressEmbed does not support vectorized loads", k.Name)
	}
	out, ok := k.ArrayByName(pi.Output)
	if !ok {
		return nil, fmt.Errorf("compiler: %s: progress output %q undeclared", k.Name, pi.Output)
	}
	if !out.Output || out.ElemBits != 32 || out.Pragma != PragmaNone {
		return nil, fmt.Errorf("compiler: %s: progress output %q must be a plain 32-bit output array", k.Name, pi.Output)
	}
	if len(k.Body) != 1 {
		return nil, fmt.Errorf("compiler: %s: progress embedding requires a single top-level tile loop", k.Name)
	}
	tl, ok := k.Body[0].(Loop)
	if !ok || tl.Var != pi.TileVar {
		return nil, fmt.Errorf("compiler: %s: top-level statement must be a loop over tile variable %q", k.Name, pi.TileVar)
	}
	coeff := pi.Marker.Coeff[pi.TileVar]
	if coeff <= 0 || len(pi.Marker.vars()) != 1 {
		return nil, fmt.Errorf("compiler: %s: progress marker must be strictly increasing in %q alone", k.Name, pi.TileVar)
	}
	for _, t := range []int64{0, tl.N - 1} {
		if idx := coeff*t + pi.Marker.Const; idx < 0 || idx >= int64(out.Len) {
			return nil, fmt.Errorf("compiler: %s: progress marker index %d out of bounds for %q", k.Name, idx, pi.Output)
		}
	}

	var (
		seg    []Stmt
		numSub = 1
		err    error
	)
	switch opts.Mode {
	case ModePrecise:
		seg = k.Body
	case ModeSWP:
		seg, numSub, err = swpFused(k, opts.MaxPasses)
	case ModeSWV:
		seg, numSub, err = swvFused(k, opts.MaxPasses)
	default:
		err = fmt.Errorf("compiler: unknown mode %v", opts.Mode)
	}
	if err != nil {
		return nil, err
	}
	if err := checkStoreOnce(seg, pi.Output); err != nil {
		return nil, fmt.Errorf("compiler: %s: %w", k.Name, err)
	}

	layout, err := BuildLayout(k, opts.Mode, false)
	if err != nil {
		return nil, err
	}
	e := &emitter{}
	cg := newCodegen(e, k, layout, opts.Mode)
	endLabel := "END"
	if err := cg.genProgressSegment(seg, pi, endLabel); err != nil {
		return nil, fmt.Errorf("compiler: %s: %w", k.Name, err)
	}
	e.placeLabel(endLabel)
	e.emitf("HALT")

	return finish(k.Name, &Compiled{
		Kernel:      k,
		Options:     opts,
		NumSubwords: numSub,
		Asm:         e.String(),
		Layout:      layout,
		EndLabel:    endLabel,
	})
}

// checkStoreOnce enforces the embedding contract: every store targets the
// progress-carrying output and commits its element exactly once, so a
// committed non-sentinel marker proves the whole tile is final.
func checkStoreOnce(body []Stmt, output string) error {
	for _, s := range body {
		switch st := s.(type) {
		case Loop:
			if err := checkStoreOnce(st.Body, output); err != nil {
				return err
			}
		case Assign:
			if st.Array != output {
				return fmt.Errorf("progress embedding requires all stores to target %q, found store to %q", output, st.Array)
			}
			if st.Accumulate {
				return fmt.Errorf("progress embedding forbids accumulating stores to %q", output)
			}
		default:
			return fmt.Errorf("progress embedding: unsupported statement %T", s)
		}
	}
	return nil
}

// addTerm left-associates a sum so evaluation holds one accumulator
// register while each new term is materialized.
func addTerm(sum, term Expr) Expr {
	if sum == nil {
		return term
	}
	return Bin{Op: OpAdd, A: sum, B: term}
}

// swpFused rewrites every anytime multiply (and bare anytime load) into the
// register-held sum of its per-subword terms, most significant first,
// keeping the top maxPasses subwords (0 = all). The result is a single
// store-once segment: truncation trades accuracy for multiply cycles
// (MUL_ASP<b> costs b cycles against the precise MUL's 16).
func swpFused(k *Kernel, maxPasses int) ([]Stmt, int, error) {
	bits, elemBits, err := aspParams(k)
	if err != nil {
		return nil, 0, err
	}
	spans := subwordSpans(elemBits, bits)
	numSub := len(spans)
	retain := numSub
	if maxPasses > 0 && maxPasses < numSub {
		retain = maxPasses
	}
	f := &swpFuser{
		t:      &swpRewriter{k: k, bits: bits, numSub: numSub, spans: spans},
		retain: retain,
	}
	seg, err := f.stmts(k.Body)
	if err != nil {
		return nil, 0, err
	}
	return seg, retain, nil
}

type swpFuser struct {
	t      *swpRewriter
	retain int
}

// subs returns the retained subword indices, most significant first.
func (f *swpFuser) subs() []int {
	out := make([]int, 0, f.retain)
	for s := f.t.numSub - 1; s >= f.t.numSub-f.retain; s-- {
		out = append(out, s)
	}
	return out
}

func (f *swpFuser) stmts(body []Stmt) ([]Stmt, error) {
	out := make([]Stmt, 0, len(body))
	for _, s := range body {
		switch st := s.(type) {
		case Loop:
			nb, err := f.stmts(st.Body)
			if err != nil {
				return nil, err
			}
			out = append(out, Loop{Var: st.Var, N: st.N, Body: nb})
		case Assign:
			nv, err := f.expr(st.Value)
			if err != nil {
				return nil, err
			}
			out = append(out, Assign{Array: st.Array, Index: st.Index, Value: nv, Accumulate: st.Accumulate})
		default:
			return nil, fmt.Errorf("compiler: swp: unsupported statement %T", s)
		}
	}
	return out, nil
}

func (f *swpFuser) expr(e Expr) (Expr, error) {
	switch ex := e.(type) {
	case Const:
		return e, nil
	case Load:
		if _, ok := f.t.isASPLoad(ex); ok {
			var sum Expr
			for _, s := range f.subs() {
				sp := f.t.spans[s]
				sum = addTerm(sum, ASPLoad{Array: ex.Array, Index: ex.Index,
					Bits: f.t.bits, Sub: s, Start: sp.Start, Width: sp.Width})
			}
			return sum, nil
		}
		return e, nil
	case Bin:
		if ex.Op == OpMul {
			if ld, ok := f.t.isASPLoad(ex.B); ok {
				return f.fuseMul(ex.A, ld)
			}
			if ld, ok := f.t.isASPLoad(ex.A); ok {
				return f.fuseMul(ex.B, ld)
			}
		}
		a, err := f.expr(ex.A)
		if err != nil {
			return nil, err
		}
		b, err := f.expr(ex.B)
		if err != nil {
			return nil, err
		}
		return Bin{Op: ex.Op, A: a, B: b}, nil
	case Reduce:
		body, err := f.expr(ex.Body)
		if err != nil {
			return nil, err
		}
		return Reduce{Var: ex.Var, N: ex.N, Body: body, Op: ex.Op}, nil
	default:
		return nil, fmt.Errorf("compiler: swp: unsupported expression %T", e)
	}
}

func (f *swpFuser) fuseMul(other Expr, ld Load) (Expr, error) {
	// A direct load stays a full-word load, exactly as in the per-pass
	// rewriter; compound operands are fused recursively.
	o := other
	if _, isLoad := other.(Load); !isLoad {
		var err error
		if o, err = f.expr(other); err != nil {
			return nil, err
		}
	}
	var sum Expr
	for _, s := range f.subs() {
		sp := f.t.spans[s]
		sum = addTerm(sum, ASPMul{Other: o, Array: ld.Array, Index: ld.Index,
			Bits: f.t.bits, Sub: s, Start: sp.Start, Width: sp.Width})
	}
	return sum, nil
}

// swvFused rewrites each ASV reduction into the register-held sum of its
// per-plane lane-parallel partial sums (most significant plane first,
// keeping maxPasses planes), replacing the per-pass accumulate-into-a-
// synthesized-sum-array shape — which stores every element once per pass —
// with a single store-once segment.
func swvFused(k *Kernel, maxPasses int) ([]Stmt, int, error) {
	bits, elemBits, provisioned, err := asvParams(k)
	if err != nil {
		return nil, 0, err
	}
	numSub := (elemBits + bits - 1) / bits
	retain := numSub
	if maxPasses > 0 && maxPasses < numSub {
		retain = maxPasses
	}
	tr := &swvRewriter{
		k: k, bits: bits, numSub: numSub,
		laneBits: asvLaneBits(bits, provisioned),
	}
	var fuse func(body []Stmt) ([]Stmt, error)
	fuse = func(body []Stmt) ([]Stmt, error) {
		out := make([]Stmt, 0, len(body))
		for _, s := range body {
			switch st := s.(type) {
			case Loop:
				nb, err := fuse(st.Body)
				if err != nil {
					return nil, err
				}
				out = append(out, Loop{Var: st.Var, N: st.N, Body: nb})
			case Assign:
				red, found, err := findASVReduce(k, st.Value)
				if err != nil {
					return nil, err
				}
				if !found {
					return nil, fmt.Errorf("compiler: swv: progress embedding supports reduction assignments only")
				}
				var chain Expr
				for p := 0; p < retain; p++ {
					tr.sub = numSub - 1 - p // plane p holds this subword
					vr, err := tr.vecReduce(red)
					if err != nil {
						return nil, err
					}
					chain = addTerm(chain, vr)
				}
				out = append(out, Assign{Array: st.Array, Index: st.Index,
					Value: replaceReduce(st.Value, chain)})
			default:
				return nil, fmt.Errorf("compiler: swv: unsupported statement %T", s)
			}
		}
		return out, nil
	}
	seg, err := fuse(k.Body)
	if err != nil {
		return nil, 0, err
	}
	return seg, retain, nil
}

// genProgressSegment emits the fused segment with the resume-scan prologue:
//
//	scan <- &OUT[marker(0)]; remaining <- T
//	L: if OUT[marker] == sentinel goto FOUND
//	   scan += markerStep; if --remaining != 0 goto L
//	   goto END                        ; every tile already committed
//	FOUND:
//	   each tile-dependent pointer += completed * itsTileStride
//	   run the tile loop `remaining` times
//
// The scan reads through its own dedicated register, so no store in the
// tile loop shares a base register with it (keeping the emitted image clean
// under the static WAR rules), and a fresh run finds the sentinel at tile 0
// with every pointer untouched — the golden path is the resume path.
func (cg *codegen) genProgressSegment(seg []Stmt, pi *ProgressInfo, endLabel string) error {
	lp := seg[0].(Loop)
	if err := cg.openSegment(seg); err != nil {
		return err
	}
	al, err := cg.layout.Of(pi.Output)
	if err != nil {
		return err
	}
	if al.Planar {
		return fmt.Errorf("compiler: progress output %q must be row-major", pi.Output)
	}
	elemBytes := int64(al.ElemBytes())
	markerStep := pi.Marker.Coeff[pi.TileVar] * elemBytes
	markerBase := al.Base + uint32(pi.Marker.Const*elemBytes)

	scan, err := cg.ra.alloc()
	if err != nil {
		return err
	}
	sent, err := cg.ra.alloc()
	if err != nil {
		return err
	}
	tmp, err := cg.ra.alloc()
	if err != nil {
		return err
	}
	ctr, err := cg.ra.alloc()
	if err != nil {
		return err
	}
	cg.e.comment("progress-embedded resume: scan tile markers for the sentinel frontier")
	cg.loadConst(scan, markerBase)
	cg.loadConst(sent, pi.Sentinel)
	cg.loadConst(ctr, uint32(lp.N))
	head := cg.e.fresh("Lscan")
	found := cg.e.fresh("Lresume")
	cg.e.placeLabel(head)
	cg.e.emitf("LDR %s, [%s, #0]", tmp, scan)
	cg.e.emitf("CMP %s, %s", tmp, sent)
	cg.e.emitf("BEQ %s", found)
	if err := cg.addImm(scan, markerStep); err != nil {
		return err
	}
	cg.e.emitf("SUBIS %s, %s, #1", ctr, ctr)
	cg.e.emitf("BNE %s", head)
	cg.e.emitf("B %s", endLabel)
	cg.e.placeLabel(found)
	// ctr now holds the remaining tile count; advance every pointer whose
	// index depends on the tile variable past the completed tiles.
	cg.e.comment("advance pointers past %s completed tiles", pi.TileVar)
	cg.loadConst(tmp, uint32(lp.N))
	cg.e.emitf("SUB %s, %s, %s", tmp, tmp, ctr)
	for _, key := range cg.ptrOrder {
		p := cg.ptrs[key]
		c := p.lin.Coeff[lp.Var]
		if c == 0 {
			continue
		}
		if c*p.stepBytes < 0 {
			return fmt.Errorf("compiler: progress embedding requires non-negative tile strides")
		}
		cg.loadConst(sent, uint32(c*p.stepBytes))
		cg.e.emitf("MUL %s, %s, %s", sent, sent, tmp)
		cg.e.emitf("ADD %s, %s, %s", p.reg, p.reg, sent)
	}
	cg.ra.release(scan)
	cg.ra.release(sent)
	cg.ra.release(tmp)

	// The tile loop proper, entered with the preloaded remaining-trip
	// counter. No pointer rewind afterwards: HALT follows immediately.
	body := cg.e.fresh("L" + lp.Var)
	cg.e.placeLabel(body)
	// The remaining-trip counter came from the marker scan, not a constant,
	// so the verifier cannot infer this loop's trips; the full tile count is
	// a sound upper bound.
	cg.e.bound(lp.N)
	if err := cg.genStmts(lp.Body); err != nil {
		return err
	}
	for _, key := range cg.ptrOrder {
		p := cg.ptrs[key]
		if c := p.lin.Coeff[lp.Var]; c != 0 {
			if err := cg.addImm(p.reg, c*p.stepBytes); err != nil {
				return err
			}
		}
	}
	cg.e.emitf("SUBIS %s, %s, #1", ctr, ctr)
	cg.e.emitf("BNE %s", body)
	cg.ra.release(ctr)
	cg.closeSegment()
	return nil
}
