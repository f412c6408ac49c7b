package compiler

import (
	"math/rand"
	"testing"

	"whatsnext/internal/cpu"
	"whatsnext/internal/mem"
)

// Differential testing: randomized kernels are compiled, assembled and run
// on the cycle-accurate simulator, and the resulting memory image must
// match the native IR interpreter bit for bit. Kernels with asp pragmas are
// additionally compiled in SWP mode and must still match exactly after all
// subword passes (the paper's exactness guarantee).

// runOnSim compiles nothing itself — it loads a compiled kernel, installs
// inputs and executes to HALT on the simulator.
func runOnSim(t *testing.T, c *Compiled, inputs map[string][]int64) *mem.Memory {
	t.Helper()
	m := mem.New(mem.DefaultConfig())
	if err := m.LoadProgram(c.Program.Image); err != nil {
		t.Fatal(err)
	}
	for name, vals := range inputs {
		if err := c.Layout.Install(m, name, vals); err != nil {
			t.Fatalf("install %s: %v", name, err)
		}
	}
	cp := cpu.New(m)
	for i := 0; !cp.Halted; i++ {
		if i > 50_000_000 {
			t.Fatalf("kernel %s: runaway", c.Kernel.Name)
		}
		if _, err := cp.Step(); err != nil {
			t.Fatalf("kernel %s: fault: %v\n%s", c.Kernel.Name, err, c.Asm)
		}
	}
	return m
}

func compareAllArrays(t *testing.T, label string, c *Compiled, m *mem.Memory, want map[string][]int64) {
	t.Helper()
	for _, a := range c.Kernel.Arrays {
		got, err := c.Layout.AppendExtract(nil, m, a.Name)
		if err != nil {
			t.Fatal(err)
		}
		w := want[a.Name]
		for i := range got {
			if got[i] != w[i] {
				t.Fatalf("%s: %s[%d] = %d, want %d\n%s", label, a.Name, i, got[i], w[i], c.Asm)
			}
		}
	}
}

// randomKernel draws a kernel from parameterized templates. When asp is
// true, the B input carries an asp pragma and appears only as a multiply
// operand (the fissionable shape).
func randomKernel(rng *rand.Rand, id int, asp bool) (*Kernel, map[string][]int64) {
	n := int64(4 + rng.Intn(13))
	m := int64(2 + rng.Intn(6))
	elemBits := []int{16, 32}[rng.Intn(2)]

	arr := func(name string, bits, length int, pragma PragmaKind) Array {
		a := Array{Name: name, ElemBits: bits, Len: length}
		if pragma != PragmaNone {
			a.Pragma = pragma
			a.SubwordBits = 8
		}
		return a
	}
	values := func(length int, bits int) []int64 {
		vs := make([]int64, length)
		for i := range vs {
			vs[i] = rng.Int63() & int64(elemMask(bits))
		}
		return vs
	}

	bPragma := PragmaNone
	if asp {
		bPragma = PragmaASP
	}
	i := LinVar("i", 1, 0)

	switch rng.Intn(4) {
	case 0: // element-wise multiply(+shift)
		k := &Kernel{
			Name: "elem",
			Arrays: []Array{
				arr("A", elemBits, int(n), PragmaNone),
				arr("B", 16, int(n), bPragma),
				arr("OUT", 32, int(n), PragmaNone),
			},
			Body: []Stmt{Loop{Var: "i", N: n, Body: []Stmt{
				Assign{Array: "OUT", Index: i,
					Value: Bin{Op: OpMul,
						A: Load{Array: "A", Index: i},
						B: Load{Array: "B", Index: i}}},
			}}},
		}
		return k, map[string][]int64{"A": values(int(n), elemBits), "B": values(int(n), 16)}

	case 1: // dot-product rows
		k := &Kernel{
			Name: "dot",
			Arrays: []Array{
				arr("A", elemBits, int(n*m), PragmaNone),
				arr("B", 16, int(n*m), bPragma),
				arr("OUT", 32, int(n), PragmaNone),
			},
			Body: []Stmt{Loop{Var: "i", N: n, Body: []Stmt{
				Assign{Array: "OUT", Index: i,
					Value: Reduce{Var: "j", N: m, Body: Bin{Op: OpMul,
						A: Load{Array: "A", Index: LinSum(LinVar("i", m, 0), LinVar("j", 1, 0))},
						B: Load{Array: "B", Index: LinSum(LinVar("i", m, 0), LinVar("j", 1, 0))}}}},
			}}},
		}
		return k, map[string][]int64{"A": values(int(n*m), elemBits), "B": values(int(n*m), 16)}

	case 2: // 1-D stencil with constant offsets
		taps := int64(1 + rng.Intn(4))
		k := &Kernel{
			Name: "stencil",
			Arrays: []Array{
				arr("C", 16, int(taps), PragmaNone),
				arr("B", 16, int(n+taps-1), bPragma),
				arr("OUT", 32, int(n), PragmaNone),
			},
			Body: []Stmt{Loop{Var: "i", N: n, Body: []Stmt{
				Assign{Array: "OUT", Index: i,
					Value: Reduce{Var: "t", N: taps, Body: Bin{Op: OpMul,
						A: Load{Array: "C", Index: LinVar("t", 1, 0)},
						B: Load{Array: "B", Index: LinSum(i, LinVar("t", 1, 0))}}}},
			}}},
		}
		return k, map[string][]int64{"C": values(int(taps), 16), "B": values(int(n+taps-1), 16)}

	default: // two statements: scaled square then post-processing shift
		shift := int64(rng.Intn(8))
		k := &Kernel{
			Name: "twostage",
			Arrays: []Array{
				arr("B", 16, int(n), bPragma),
				arr("SQ", 32, int(n), PragmaNone),
				arr("OUT", 32, int(n), PragmaNone),
			},
			Body: []Stmt{Loop{Var: "i", N: n, Body: []Stmt{
				Assign{Array: "SQ", Index: i,
					Value: Bin{Op: OpMul,
						A: Load{Array: "B", Index: i},
						B: Load{Array: "B", Index: i}}},
				Assign{Array: "OUT", Index: i,
					Value: Bin{Op: OpShr, A: Load{Array: "SQ", Index: i}, B: Const{V: shift}}},
			}}},
		}
		return k, map[string][]int64{"B": values(int(n), 16)}
	}
}

func TestDifferentialPrecise(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		k, inputs := randomKernel(rng, trial, false)
		want, err := Interpret(k, inputs)
		if err != nil {
			t.Fatalf("trial %d: interpret: %v", trial, err)
		}
		c, err := Compile(k, Options{Mode: ModePrecise})
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		m := runOnSim(t, c, inputs)
		compareAllArrays(t, "precise", c, m, want)
	}
}

func TestDifferentialSWPExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 80; trial++ {
		k, inputs := randomKernel(rng, trial, true)
		want, err := Interpret(k, inputs)
		if err != nil {
			t.Fatalf("trial %d: interpret: %v", trial, err)
		}
		c, err := Compile(k, Options{Mode: ModeSWP})
		if err != nil {
			t.Fatalf("trial %d: compile swp: %v", trial, err)
		}
		m := runOnSim(t, c, inputs)
		compareAllArrays(t, "swp-complete", c, m, want)
	}
}

func TestSWPRejectsMixedAdditiveTerms(t *testing.T) {
	// X[i] = A[i] + B[i] with only B annotated: fissioning would re-add
	// the precise A term every pass, so the compiler must refuse.
	k := &Kernel{
		Name: "mixed",
		Arrays: []Array{
			{Name: "A", ElemBits: 16, Len: 8},
			{Name: "B", ElemBits: 16, Len: 8, Pragma: PragmaASP, SubwordBits: 8},
			{Name: "X", ElemBits: 32, Len: 8},
		},
		Body: []Stmt{Loop{Var: "i", N: 8, Body: []Stmt{
			Assign{Array: "X", Index: LinVar("i", 1, 0),
				Value: Bin{Op: OpAdd,
					A: Load{Array: "A", Index: LinVar("i", 1, 0)},
					B: Load{Array: "B", Index: LinVar("i", 1, 0)}}},
		}}},
	}
	if _, err := Compile(k, Options{Mode: ModeSWP}); err == nil {
		t.Fatal("mixed approximate/precise additive terms must be rejected")
	}
}

func TestInterpretRejectsAnytimeNodes(t *testing.T) {
	k := &Kernel{
		Name:   "bad",
		Arrays: []Array{{Name: "A", ElemBits: 16, Len: 4}},
		Body: []Stmt{
			Assign{Array: "A", Index: LinConst(0),
				Value: ASPMul{Other: Const{V: 1}, Array: "A", Index: LinConst(0), Bits: 8}},
		},
	}
	if _, err := Interpret(k, nil); err == nil {
		t.Fatal("interpreter accepts source IR only")
	}
}

func TestInterpretBoundsChecked(t *testing.T) {
	k := &Kernel{
		Name:   "oob",
		Arrays: []Array{{Name: "A", ElemBits: 16, Len: 4}},
		Body: []Stmt{Loop{Var: "i", N: 8, Body: []Stmt{
			Assign{Array: "A", Index: LinVar("i", 1, 0), Value: Const{V: 1}},
		}}},
	}
	if _, err := Interpret(k, nil); err == nil {
		t.Fatal("out-of-bounds access must be reported")
	}
}

// TestDifferentialVectorLoads: the Figure 12 packed-load lowering must be
// value-identical to the reference across random dot kernels.
func TestDifferentialVectorLoads(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		// MatMul-shaped kernel with lane-divisible reduce trips (4-bit
		// subwords pack 8 lanes per word, so trips are multiples of 8).
		n := int64(8 * (1 + rng.Intn(3)))
		bits := []int{4, 8}[rng.Intn(2)]
		k := &Kernel{
			Name: "vdot",
			Arrays: []Array{
				{Name: "A", ElemBits: 16, Len: int(n * n), Pragma: PragmaASP, SubwordBits: bits},
				{Name: "B", ElemBits: 16, Len: int(n * n)},
				{Name: "OUT", ElemBits: 32, Len: int(n * n)},
			},
			Body: []Stmt{Loop{Var: "i", N: n, Body: []Stmt{
				Loop{Var: "j", N: n, Body: []Stmt{
					Assign{Array: "OUT", Index: LinSum(LinVar("i", n, 0), LinVar("j", 1, 0)),
						Value: Reduce{Var: "k", N: n, Body: Bin{Op: OpMul,
							A: Load{Array: "B", Index: LinSum(LinVar("k", n, 0), LinVar("j", 1, 0))},
							B: Load{Array: "A", Index: LinSum(LinVar("i", n, 0), LinVar("k", 1, 0))}}}},
				}},
			}}},
		}
		inputs := map[string][]int64{}
		for _, name := range []string{"A", "B"} {
			vals := make([]int64, n*n)
			for i := range vals {
				vals[i] = rng.Int63() & 0xFFFF
				if name == "B" {
					vals[i] &= 0xFF // keep 32-bit accumulators meaningful
				}
			}
			inputs[name] = vals
		}
		want, err := Interpret(k, inputs)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(k, Options{Mode: ModeSWP, VectorLoads: true})
		if err != nil {
			t.Fatalf("trial %d (n=%d bits=%d): %v", trial, n, bits, err)
		}
		m := runOnSim(t, c, inputs)
		compareAllArrays(t, "vector-loads", c, m, want)
	}
}

// TestCompileRegisterPressure: a kernel with more simultaneous access
// streams than scratch registers must fail with a clear diagnostic, not
// generate bad code.
func TestCompileRegisterPressure(t *testing.T) {
	arrays := make([]Array, 0, 14)
	var sum Expr = Const{V: 0}
	for i := 0; i < 13; i++ {
		name := string(rune('A' + i))
		arrays = append(arrays, Array{Name: name, ElemBits: 32, Len: 4})
		sum = Bin{Op: OpAdd, A: sum, B: Load{Array: name, Index: LinVar("i", 1, 0)}}
	}
	arrays = append(arrays, Array{Name: "OUT", ElemBits: 32, Len: 4})
	k := &Kernel{
		Name:   "pressure",
		Arrays: arrays,
		Body: []Stmt{Loop{Var: "i", N: 4, Body: []Stmt{
			Assign{Array: "OUT", Index: LinVar("i", 1, 0), Value: sum},
		}}},
	}
	if _, err := Compile(k, Options{Mode: ModePrecise}); err == nil {
		t.Fatal("register exhaustion should surface as a compile error")
	}
}
