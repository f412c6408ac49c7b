package mem_test

import (
	"bytes"
	"testing"

	"whatsnext/internal/compiler"
	"whatsnext/internal/core"
	"whatsnext/internal/energy"
	"whatsnext/internal/intermittent"
	"whatsnext/internal/mem"
)

// rmwKernel adds A[i] into X[i] over several passes: each X store follows
// a read of X, so Clank checkpoints ahead of every one. Each Y store only
// writes, so it checkpoints only if a stamp left from an earlier epoch
// reads as current.
func rmwKernel() *compiler.Kernel {
	const n, passes = 64, 4
	i := compiler.LinVar("i", 1, 0)
	return &compiler.Kernel{
		Name: "rmw",
		Arrays: []compiler.Array{
			{Name: "A", ElemBits: 16, Len: n},
			{Name: "X", ElemBits: 32, Len: n, Output: true},
			{Name: "Y", ElemBits: 32, Len: n, Output: true},
		},
		Body: []compiler.Stmt{compiler.Loop{Var: "p", N: passes, Body: []compiler.Stmt{
			compiler.Loop{Var: "i", N: n, Body: []compiler.Stmt{
				compiler.Assign{Array: "X", Index: i, Value: compiler.Bin{Op: compiler.OpAdd,
					A: compiler.Load{Array: "X", Index: i},
					B: compiler.Load{Array: "A", Index: i}}},
				compiler.Assign{Array: "Y", Index: i, Value: compiler.Load{Array: "A", Index: i}},
			}},
		}}},
	}
}

// TestEpochWrapDuringClankRun starts a Clank run a few checkpoints before
// the 16-bit epoch counter wraps, on a trace with outages, and requires the
// same Result and non-volatile data as a run from a fresh epoch.
func TestEpochWrapDuringClankRun(t *testing.T) {
	c, err := compiler.Compile(rmwKernel(), compiler.Options{Mode: compiler.ModePrecise})
	if err != nil {
		t.Fatal(err)
	}
	a := make([]int64, 64)
	for i := range a {
		a[i] = int64(i*7919) % 65536
	}
	in := map[string][]int64{"A": a}
	trace := energy.SyntheticWiFiTrace(1, energy.DefaultTraceConfig())
	const lead = 4 // epochs left before the wrap when the run starts

	run := func(start uint16) (intermittent.Result, *mem.Memory) {
		t.Helper()
		sys := core.NewSystem(core.DefaultConfig(), trace)
		if err := sys.Load(c); err != nil {
			t.Fatal(err)
		}
		if start != 0 {
			mem.SetEpoch(sys.Mem, start)
		}
		res, err := sys.RunInput(in)
		if err != nil || !res.Halted {
			t.Fatalf("run from epoch %d: %+v, %v", start, res, err)
		}
		return res, sys.Mem
	}
	fresh, freshMem := run(0)
	// The policy's initial checkpoint takes the next epoch.
	wrapped, wrappedMem := run(^uint16(0) - lead)

	if fresh.Checkpoints <= lead || fresh.Outages == 0 {
		t.Fatalf("%d checkpoints and %d outages: the run must outlast the wrap and ride through outages",
			fresh.Checkpoints, fresh.Outages)
	}
	if e := mem.Epoch(wrappedMem); e >= ^uint16(0)-lead {
		t.Fatalf("epoch %d after the run: the counter did not wrap", e)
	}
	if wrapped != fresh {
		t.Errorf("result across the wrap %+v, fresh %+v", wrapped, fresh)
	}
	n := freshMem.Config().DataBytes
	wrappedData, err := wrappedMem.DataWindow(mem.DataBase, n)
	if err != nil {
		t.Fatal(err)
	}
	freshData, err := freshMem.DataWindow(mem.DataBase, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wrappedData, freshData) {
		t.Error("non-volatile data differs from the fresh-epoch run")
	}
}
