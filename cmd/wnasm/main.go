// Command wnasm assembles and disassembles WN programs.
//
// Usage:
//
//	wnasm build prog.s            # assemble; writes prog.bin
//	wnasm build -o out.bin prog.s
//	wnasm build -lint prog.s      # assemble and statically verify
//	wnasm dis prog.bin            # disassemble to stdout
//	wnasm run prog.s              # assemble and run under continuous power
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"whatsnext/internal/asm"
	"whatsnext/internal/core"
	"whatsnext/internal/isa"
	"whatsnext/internal/wncheck"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	out := fs.String("o", "", "output file (build)")
	maxInst := fs.Uint64("max-inst", 100_000_000, "instruction budget (run)")
	lint := fs.Bool("lint", false, "run the static verifier after assembling (build, run)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if fs.NArg() != 1 {
		usage()
	}
	file := fs.Arg(0)

	var err error
	switch cmd {
	case "build":
		err = build(file, *out, *lint)
	case "dis":
		err = dis(file)
	case "run":
		err = run(file, *maxInst, *lint)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wnasm:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: wnasm build|dis|run [-o out.bin] [-max-inst N] [-lint] file")
	os.Exit(2)
}

// verify runs the static checker over an assembled program and reports its
// findings; an error is returned when any finding is warning-or-worse.
func verify(file string, p *asm.Program) error {
	res, err := wncheck.Check(p, wncheck.Options{})
	if err != nil {
		return err
	}
	for _, d := range res.Diags {
		fmt.Fprintln(os.Stderr, d.Format(file))
	}
	if n := res.Count(wncheck.Warning); n > 0 {
		return fmt.Errorf("%s: %d lint findings", file, n)
	}
	return nil
}

func build(file, out string, lint bool) error {
	src, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	p, err := asm.AssembleNamed(file, string(src))
	if err != nil {
		return err
	}
	if lint {
		if err := verify(file, p); err != nil {
			return err
		}
	}
	if out == "" {
		out = strings.TrimSuffix(file, ".s") + ".bin"
	}
	if err := os.WriteFile(out, p.Image, 0o644); err != nil {
		return err
	}
	fmt.Printf("%s: %d instructions, %d bytes, %d labels\n",
		out, len(p.Image)/isa.InstBytes, len(p.Image), len(p.Labels))
	return nil
}

func dis(file string) error {
	image, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	fmt.Print(asm.Disassemble(image))
	return nil
}

func run(file string, maxInst uint64, lint bool) error {
	src, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	p, err := asm.AssembleNamed(file, string(src))
	if err != nil {
		return err
	}
	if lint {
		if err := verify(file, p); err != nil {
			return err
		}
	}
	_, c, err := core.NewDevice(core.AssembledProgram(p))
	if err != nil {
		return err
	}
	var cycles, instrs uint64
	for !c.Halted {
		cost, err := c.Step()
		if err != nil {
			return err
		}
		cycles += uint64(cost.Cycles)
		if instrs++; instrs > maxInst {
			return fmt.Errorf("instruction budget exhausted after %d instructions", maxInst)
		}
	}
	fmt.Printf("halted after %d instructions, %d cycles\n", instrs, cycles)
	for i := 0; i < 13; i++ {
		fmt.Printf("R%-2d = %#010x (%d)\n", i, c.Regs[i], c.Regs[i])
	}
	return nil
}
