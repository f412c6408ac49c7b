package asm_test

import (
	"os"
	"testing"

	"whatsnext/internal/asm"
	"whatsnext/internal/cpu"
	"whatsnext/internal/mem"
)

// The testdata program is the paper's Listing 2 shape written by hand. The
// integration tests run it continuously to exact completion and truncated
// at the skim point for the approximate result. The third way, under
// injected outages where the skim point must commit the early answer, is
// TestDotprodSkimUnderOutages in internal/intermittent.

func loadDotprod(t *testing.T) *asm.Program {
	t.Helper()
	src, err := os.ReadFile("testdata/dotprod.s")
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Assemble(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func installDotprodInputs(t *testing.T, m *mem.Memory) (f, a [8]uint32, exact uint32) {
	t.Helper()
	for i := 0; i < 8; i++ {
		f[i] = uint32(100 + 13*i)
		a[i] = uint32(0x1234 + 0x1111*i)
		if err := m.StoreHalf(mem.DataBase+uint32(2*i), f[i]); err != nil {
			t.Fatal(err)
		}
		if err := m.StoreHalf(mem.DataBase+16+uint32(2*i), a[i]); err != nil {
			t.Fatal(err)
		}
		exact += f[i] * a[i]
	}
	return
}

func TestDotprodExactCompletion(t *testing.T) {
	p := loadDotprod(t)
	m := mem.New(mem.DefaultConfig())
	if err := m.LoadProgram(p.Image); err != nil {
		t.Fatal(err)
	}
	_, a, exact := installDotprodInputs(t, m)
	_ = a
	c := cpu.New(m)
	for i := 0; !c.Halted; i++ {
		if i > 100000 {
			t.Fatal("runaway")
		}
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := m.LoadWord(mem.DataBase + 32)
	if err != nil {
		t.Fatal(err)
	}
	if got != exact {
		t.Fatalf("X = %d, want %d", got, exact)
	}
}

func TestDotprodApproxAtSkim(t *testing.T) {
	p := loadDotprod(t)
	m := mem.New(mem.DefaultConfig())
	if err := m.LoadProgram(p.Image); err != nil {
		t.Fatal(err)
	}
	f, a, exact := installDotprodInputs(t, m)
	c := cpu.New(m)
	for !c.Halted && !c.SkimArmed {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := m.LoadWord(mem.DataBase + 32)
	if err != nil {
		t.Fatal(err)
	}
	var wantMS uint32
	for i := 0; i < 8; i++ {
		wantMS += f[i] * (a[i] >> 8 << 8)
	}
	if got != wantMS {
		t.Fatalf("approximate X = %d, want the MS-byte partial %d", got, wantMS)
	}
	if rel := float64(exact-got) / float64(exact); rel < 0 || rel > 0.01 {
		t.Fatalf("MS pass should be within 1%% of exact, off by %.3f%%", 100*rel)
	}
}
