package core

import (
	"testing"

	"whatsnext/internal/compiler"
	"whatsnext/internal/energy"
)

func sizedKernel(n int64) *compiler.Kernel {
	return &compiler.Kernel{
		Name: "scale",
		Arrays: []compiler.Array{
			{Name: "A", ElemBits: 16, Len: int(n), Pragma: compiler.PragmaASP, SubwordBits: 8},
			{Name: "X", ElemBits: 32, Len: int(n), Output: true},
		},
		Body: []compiler.Stmt{compiler.Loop{Var: "i", N: n, Body: []compiler.Stmt{
			compiler.Assign{Array: "X", Index: compiler.LinVar("i", 1, 0),
				Value: compiler.Bin{Op: compiler.OpMul,
					A: compiler.Const{V: 3},
					B: compiler.Load{Array: "A", Index: compiler.LinVar("i", 1, 0)}}},
		}}},
	}
}

func smallKernel() *compiler.Kernel { return sizedKernel(64) }

func sizedInputs(n int) map[string][]int64 {
	a := make([]int64, n)
	for i := range a {
		a[i] = int64(i * 1021 % 65536)
	}
	return map[string][]int64{"A": a}
}

func inputs() map[string][]int64 { return sizedInputs(64) }

func TestSystemEndToEnd(t *testing.T) {
	c, err := compiler.Compile(smallKernel(), compiler.Options{Mode: compiler.ModeSWP})
	if err != nil {
		t.Fatal(err)
	}
	for _, proc := range []Processor{ProcClank, ProcNVP} {
		cfg := DefaultConfig()
		cfg.Processor = proc
		sys := NewSystem(cfg, ContinuousTrace())
		if err := sys.Load(c); err != nil {
			t.Fatal(err)
		}
		res, err := sys.RunInput(inputs())
		if err != nil {
			t.Fatalf("%v: %v", proc, err)
		}
		if !res.Halted {
			t.Fatalf("%v: not halted", proc)
		}
		out, err := sys.Output("X")
		if err != nil {
			t.Fatal(err)
		}
		in := inputs()["A"]
		for i := range out {
			if out[i] != float64(3*in[i]) {
				t.Fatalf("%v: X[%d] = %v, want %v", proc, i, out[i], 3*in[i])
			}
		}
	}
}

func TestSystemRequiresLoad(t *testing.T) {
	sys := NewSystem(DefaultConfig(), ContinuousTrace())
	if _, err := sys.RunInput(nil); err == nil {
		t.Fatal("running without a kernel must fail")
	}
	if _, err := sys.Output("X"); err == nil {
		t.Fatal("output without a kernel must fail")
	}
}

func TestSystemRejectsUnknownInput(t *testing.T) {
	c, err := compiler.Compile(smallKernel(), compiler.Options{Mode: compiler.ModePrecise})
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(DefaultConfig(), ContinuousTrace())
	if err := sys.Load(c); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunInput(map[string][]int64{"NOPE": {1}}); err == nil {
		t.Fatal("unknown input array must fail")
	}
}

func TestRepeatedInputsAreIndependent(t *testing.T) {
	c, err := compiler.Compile(smallKernel(), compiler.Options{Mode: compiler.ModeSWP})
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(DefaultConfig(), energy.SyntheticWiFiTrace(5, energy.DefaultTraceConfig()))
	if err := sys.Load(c); err != nil {
		t.Fatal(err)
	}
	// Process the same input twice on the same device; the second run must
	// match the first bit for bit (data zeroed, skim disarmed, fresh
	// checkpoint) even though the supply state differs.
	var outs [2][]float64
	for round := 0; round < 2; round++ {
		if _, err := sys.RunInput(inputs()); err != nil {
			t.Fatal(err)
		}
		out, err := sys.Output("X")
		if err != nil {
			t.Fatal(err)
		}
		outs[round] = out
	}
	// Both runs rode different outage patterns, so approximate results can
	// differ — but each must be either exact or a valid MS-pass prefix;
	// with value 3*a and 8-bit subwords the MS-pass value is 3*(a&0xFF00).
	in := inputs()["A"]
	for round, out := range outs {
		for i := range out {
			exact := float64(3 * in[i])
			msOnly := float64(3 * (in[i] &^ 0xFF))
			if out[i] != exact && out[i] != msOnly {
				t.Fatalf("round %d: X[%d] = %v, want %v or %v", round, i, out[i], exact, msOnly)
			}
		}
	}
}

func TestMemoizationFlag(t *testing.T) {
	c, err := compiler.Compile(smallKernel(), compiler.Options{Mode: compiler.ModePrecise})
	if err != nil {
		t.Fatal(err)
	}
	loaded := func(cfg Config) *System {
		sys := NewSystem(cfg, ContinuousTrace())
		if err := sys.Load(c); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	cfg := DefaultConfig()
	cfg.Memoization = true
	if loaded(cfg).CPU.Memo == nil {
		t.Fatal("memoization flag should install the memo table")
	}
	if loaded(DefaultConfig()).CPU.Memo != nil {
		t.Fatal("memoization defaults to off, as in the paper")
	}
}

func TestProcessorString(t *testing.T) {
	if ProcClank.String() != "clank" || ProcNVP.String() != "nvp" {
		t.Fatal("processor names")
	}
}

// TestMemoizationConsistentUnderOutages: the memo table is volatile and is
// invalidated at every outage; results must nevertheless match the
// memo-less run exactly (memoization is a pure timing optimization).
func TestMemoizationConsistentUnderOutages(t *testing.T) {
	const n = 4096
	c, err := compiler.Compile(sizedKernel(n), compiler.Options{Mode: compiler.ModeSWP, NoSkim: true})
	if err != nil {
		t.Fatal(err)
	}
	outs := map[bool][]float64{}
	for _, memo := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Memoization = memo
		sys := NewSystem(cfg, energy.SyntheticWiFiTrace(21, energy.DefaultTraceConfig()))
		if err := sys.Load(c); err != nil {
			t.Fatal(err)
		}
		res, err := sys.RunInput(sizedInputs(n))
		if err != nil {
			t.Fatal(err)
		}
		if res.Outages == 0 {
			t.Fatal("expected outages")
		}
		out, err := sys.Output("X")
		if err != nil {
			t.Fatal(err)
		}
		outs[memo] = out
	}
	for i := range outs[false] {
		if outs[false][i] != outs[true][i] {
			t.Fatalf("memoization changed results at %d: %v vs %v", i, outs[false][i], outs[true][i])
		}
	}
}

// TestUndoLogSystemEndToEnd drives the undo-log processor through the
// façade like the other two runtimes.
func TestUndoLogSystemEndToEnd(t *testing.T) {
	const n = 4096
	c, err := compiler.Compile(sizedKernel(n), compiler.Options{Mode: compiler.ModeSWP, NoSkim: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Processor = ProcUndoLog
	sys := NewSystem(cfg, energy.SyntheticWiFiTrace(21, energy.DefaultTraceConfig()))
	if err := sys.Load(c); err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunInput(sizedInputs(n))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || res.Outages == 0 || res.Checkpoints == 0 {
		t.Fatalf("unexpected result %+v", res)
	}
	out, err := sys.Output("X")
	if err != nil {
		t.Fatal(err)
	}
	in := sizedInputs(n)["A"]
	for i := range out {
		if out[i] != float64(3*in[i]) {
			t.Fatalf("X[%d] = %v, want %v", i, out[i], 3*in[i])
		}
	}
}
