package asm

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzAssemble: the assembler returns an error, never panics, on any
// source text, and the disassembler renders any image it accepts. Seeds
// are every checked-in assembly program.
func FuzzAssemble(f *testing.F) {
	var paths []string
	for _, pat := range []string{"testdata/*.s", "../*/testdata/*.s"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			f.Fatal(err)
		}
		paths = append(paths, m...)
	}
	if len(paths) == 0 {
		f.Fatal("no .s seed programs found")
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			return
		}
		Disassemble(p.Image)
	})
}
