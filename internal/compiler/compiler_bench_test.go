package compiler

import (
	"testing"

	"whatsnext/internal/mem"
)

func benchKernel() *Kernel {
	n := int64(64)
	return &Kernel{
		Name: "bench",
		Arrays: []Array{
			{Name: "A", ElemBits: 16, Len: int(n * n), Pragma: PragmaASP, SubwordBits: 4},
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
}

// BenchmarkCompilePrecise measures straight-line lowering + assembly.
func BenchmarkCompilePrecise(b *testing.B) {
	k := benchKernel()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(k, Options{Mode: ModePrecise}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileSWP measures the fission pass at 4 bits (4 passes).
func BenchmarkCompileSWP(b *testing.B) {
	k := benchKernel()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(k, Options{Mode: ModeSWP}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpret measures the reference interpreter on the same kernel.
func BenchmarkInterpret(b *testing.B) {
	k := benchKernel()
	in := map[string][]int64{}
	for _, name := range []string{"A", "B"} {
		vals := make([]int64, 64*64)
		for i := range vals {
			vals[i] = int64(i % 65536)
		}
		in[name] = vals
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Interpret(k, in); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPlanar lays out one planar SWV array at Table I size — MatAdd's
// 64x64 31-bit matrix in provisioned 4-bit subwords (8 planes of 8-bit
// lanes) — with its memory and input values.
func benchPlanar(b *testing.B) (*Layout, *mem.Memory, []int64) {
	b.Helper()
	k := &Kernel{Name: "matadd", Arrays: []Array{{
		Name: "A", ElemBits: 32, Len: 64 * 64, ValueBits: 31,
		Pragma: PragmaASV, SubwordBits: 4, Provisioned: true,
	}}}
	l, err := BuildLayout(k, ModeSWV, false)
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]int64, 64*64)
	for i := range vals {
		vals[i] = int64(i) * 524287 % (1 << 31)
	}
	return l, mem.New(mem.DefaultConfig()), vals
}

// BenchmarkLayoutInstall measures encoding one planar array into memory.
func BenchmarkLayoutInstall(b *testing.B) {
	l, m, vals := benchPlanar(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Install(m, "A", vals); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLayoutExtract measures reading one planar array back out into a
// reused buffer, as the quality samplers do.
func BenchmarkLayoutExtract(b *testing.B) {
	l, m, vals := benchPlanar(b)
	if err := l.Install(m, "A", vals); err != nil {
		b.Fatal(err)
	}
	var buf []int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = l.AppendExtract(buf[:0], m, "A"); err != nil {
			b.Fatal(err)
		}
	}
}
