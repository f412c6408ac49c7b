package compiler

import (
	"fmt"

	"whatsnext/internal/asm"
	"whatsnext/internal/mem"
	"whatsnext/internal/wncheck"
)

// Options selects the compilation strategy for a kernel.
type Options struct {
	Mode Mode
	// VectorLoads applies the Figure 12 optimization in ModeSWP: the
	// ASP-annotated input is stored subword-major so one load fetches the
	// subwords of several elements.
	VectorLoads bool
	// NoSkim suppresses skim-point insertion (ablation).
	NoSkim bool
	// MaxPasses keeps only the first (most significant) n subword passes —
	// the compile-time form of skimming: the committed result is the
	// n-pass approximation and the remaining passes are never emitted.
	// Zero means all passes. Ignored in ModePrecise.
	MaxPasses int
	// ProgressEmbed lowers the kernel as one fused store-once pass whose
	// output tiles carry intrinsic progress (Kernel.Progress declares the
	// tiling): the harness pre-fills the output with the reserved sentinel
	// (see Compiled.InstallData) and the emitted prologue scans tile
	// markers to find the resume frontier, so restart needs no separate
	// NVM progress state.
	ProgressEmbed bool
}

// Compiled is a fully lowered kernel: assembly text, the assembled program
// image, and the data layout used to install inputs and extract outputs.
type Compiled struct {
	Kernel      *Kernel // possibly augmented with synthesized arrays
	Options     Options
	NumSubwords int
	Asm         string
	Program     *asm.Program
	Layout      *Layout
	EndLabel    string
	// Mem is the memory geometry a device running the program needs.
	Mem mem.Config
	// Cert is the wncheck verification certificate for the emitted image,
	// verified at Mem.
	Cert *wncheck.Certificate
}

// InstallData installs one input sample into data memory. For
// progress-embedded builds it first fills the progress-carrying output
// array with the reserved sentinel, so the emitted resume scan can tell
// committed tiles from unwritten ones; every harness (core system, fault
// injector, experiment devices) must install inputs through this method
// rather than raw Layout.Install calls.
func (c *Compiled) InstallData(m *mem.Memory, inputs map[string][]int64) error {
	if c.Options.ProgressEmbed && c.Kernel.Progress != nil {
		if err := c.Layout.Fill(m, c.Kernel.Progress.Output, c.Kernel.Progress.Sentinel); err != nil {
			return err
		}
	}
	for name, vals := range inputs {
		if err := c.Layout.Install(m, name, vals); err != nil {
			return err
		}
	}
	return nil
}

// Compile lowers a kernel under the given options.
func Compile(k *Kernel, opts Options) (*Compiled, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if opts.ProgressEmbed {
		return compileProgress(k, opts)
	}
	var (
		segments [][]Stmt
		numSub   = 1
		target   = k
		err      error
	)
	switch opts.Mode {
	case ModePrecise:
		segments = [][]Stmt{k.Body}
	case ModeSWP:
		segments, numSub, err = swpTransform(k, opts.VectorLoads)
	case ModeSWV:
		segments, target, numSub, err = swvTransform(k)
	default:
		err = fmt.Errorf("compiler: unknown mode %v", opts.Mode)
	}
	if err != nil {
		return nil, err
	}
	if opts.MaxPasses > 0 && opts.MaxPasses < len(segments) {
		// Passes are ordered most significant first, so truncation keeps
		// the passes that carry the real content.
		segments = segments[:opts.MaxPasses]
		numSub = opts.MaxPasses
	}

	layout, err := BuildLayout(target, opts.Mode, opts.VectorLoads)
	if err != nil {
		return nil, err
	}

	e := &emitter{}
	cg := newCodegen(e, target, layout, opts.Mode)
	endLabel := "END"
	for i, seg := range segments {
		if len(segments) > 1 {
			e.comment("subword pass %d of %d (most significant first)", i+1, len(segments))
		}
		if err := cg.openSegment(seg); err != nil {
			return nil, fmt.Errorf("compiler: %s pass %d: %w", k.Name, i, err)
		}
		if err := cg.genStmts(seg); err != nil {
			return nil, fmt.Errorf("compiler: %s pass %d: %w", k.Name, i, err)
		}
		cg.closeSegment()
		if i < len(segments)-1 && !opts.NoSkim {
			// An acceptable approximation now exists: arm the skim point so
			// an outage commits the current result and moves on.
			e.emitf("SKM %s", endLabel)
		}
	}
	e.placeLabel(endLabel)
	e.emitf("HALT")

	return finish(k.Name, &Compiled{
		Kernel:      target,
		Options:     opts,
		NumSubwords: numSub,
		Asm:         e.String(),
		Layout:      layout,
		EndLabel:    endLabel,
	})
}

// finish assembles a lowered kernel's text, sizes the device memory the
// program needs, and verifies the image at that geometry.
func finish(name string, c *Compiled) (*Compiled, error) {
	prog, err := asm.Assemble(c.Asm)
	if err != nil {
		return nil, fmt.Errorf("compiler: %s: assembling generated code: %w", name, err)
	}
	c.Program = prog
	c.Mem = geometry(prog, c.Layout)
	if c.Cert, err = verifyEmitted(name, prog, c.Mem); err != nil {
		return nil, err
	}
	return c, nil
}

// geometry sizes a device's memory to its program: code to the image and
// data to the layout, each rounded up to 1 KB. SRAM keeps the default
// size, because the boot SP sits at its top and moving it would move the
// stack. An access past the layout therefore faults on the device, and
// the post-emit verification reports a statically known one as WN403.
func geometry(prog *asm.Program, l *Layout) mem.Config {
	const kb = 1 << 10
	roundUp := func(n int) int { return (n + kb - 1) &^ (kb - 1) }
	return mem.Config{
		CodeBytes: roundUp(len(prog.Image)),
		DataBytes: roundUp(l.TotalBytes),
		SRAMBytes: mem.DefaultConfig().SRAMBytes,
	}
}
