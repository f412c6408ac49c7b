package compiler

import (
	"fmt"
	"strings"

	"whatsnext/internal/asm"
	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
	"whatsnext/internal/wncheck"
)

// emitter accumulates assembly text with fresh-label support.
type emitter struct {
	b      strings.Builder
	labelN int
}

func (e *emitter) emitf(format string, args ...any) {
	fmt.Fprintf(&e.b, "    "+format+"\n", args...)
}

// amenable marks the next emitted instruction as WN-amenable for Table I
// accounting.
func (e *emitter) amenable() {
	e.b.WriteString(".amenable\n")
}

// bound annotates the next emitted instruction's innermost loop with a
// static trip bound, for loops whose counter the verifier cannot infer
// (e.g. the progress-embedded resume loop, whose remaining-trip count is
// loaded from the non-volatile marker scan).
func (e *emitter) bound(n int64) {
	fmt.Fprintf(&e.b, ".bound %d\n", n)
}

func (e *emitter) placeLabel(l string) {
	fmt.Fprintf(&e.b, "%s:\n", l)
}

func (e *emitter) fresh(prefix string) string {
	e.labelN++
	return fmt.Sprintf("%s_%d", prefix, e.labelN)
}

func (e *emitter) comment(format string, args ...any) {
	fmt.Fprintf(&e.b, "    ; "+format+"\n", args...)
}

func (e *emitter) String() string { return e.b.String() }

// regalloc hands out scratch registers R0..R12. SP/LR/PC are reserved.
type regalloc struct {
	inUse [13]bool
}

func (ra *regalloc) alloc() (isa.Reg, error) {
	for i := range ra.inUse {
		if !ra.inUse[i] {
			ra.inUse[i] = true
			return isa.Reg(i), nil
		}
	}
	return 0, fmt.Errorf("compiler: out of registers (13 scratch registers exhausted)")
}

func (ra *regalloc) release(r isa.Reg) {
	if int(r) < len(ra.inUse) {
		ra.inUse[r] = false
	}
}

// verifyEmitted runs the static verifier at the program's memory geometry —
// including the crash-consistency analysis, so every compile is
// self-certifying for power-failure soundness and returns the verification
// certificate alongside the image.
// Error-severity findings in generated code are compiler bugs, so they fail
// the compilation; warnings and info findings are left to wnlint.
func verifyEmitted(name string, prog *asm.Program, geo mem.Config) (*wncheck.Certificate, error) {
	res, cert, err := wncheck.Verify(prog, wncheck.Options{Mem: geo, Crash: true, Progress: true})
	if err != nil {
		return nil, fmt.Errorf("compiler: %s: verifying generated code: %w", name, err)
	}
	errs := res.Errors()
	if len(errs) == 0 {
		return cert, nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "compiler: %s: generated code fails static verification (%d errors)", name, len(errs))
	for i, d := range errs {
		if i == 3 {
			fmt.Fprintf(&b, "; and %d more", len(errs)-i)
			break
		}
		fmt.Fprintf(&b, "; %s", d)
	}
	return nil, fmt.Errorf("%s", b.String())
}
