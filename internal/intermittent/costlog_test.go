package intermittent_test

import (
	"runtime"
	"testing"
	"unsafe"

	"whatsnext/internal/compiler"
	"whatsnext/internal/core"
	"whatsnext/internal/cpu"
	"whatsnext/internal/energy"
	"whatsnext/internal/intermittent"
)

// accumKernel adds 3*A[i] into X[i] over several passes: every X store
// follows a read of X, so Clank checkpoints at each one, and the run
// outlasts a charge of the default capacitor on a Wi-Fi trace.
func accumKernel() *compiler.Kernel {
	const n, passes = 256, 8
	i := compiler.LinVar("i", 1, 0)
	return &compiler.Kernel{
		Name: "accum",
		Arrays: []compiler.Array{
			{Name: "A", ElemBits: 16, Len: n},
			{Name: "X", ElemBits: 32, Len: n, Output: true},
		},
		Body: []compiler.Stmt{compiler.Loop{Var: "p", N: passes, Body: []compiler.Stmt{
			compiler.Loop{Var: "i", N: n, Body: []compiler.Stmt{
				compiler.Assign{Array: "X", Index: i, Value: compiler.Bin{Op: compiler.OpAdd,
					A: compiler.Load{Array: "X", Index: i},
					B: compiler.Bin{Op: compiler.OpMul, A: compiler.Const{V: 3}, B: compiler.Load{Array: "A", Index: i}}}},
			}},
		}}},
	}
}

func accumInputs() map[string][]int64 {
	a := make([]int64, 256)
	for i := range a {
		a[i] = int64(i*1021) % 65536
	}
	return map[string][]int64{"A": a}
}

// logBase requires the log's capacity to equal the cap and returns the address
// of its backing array.
func logBase(t *testing.T, log []cpu.Cost) *cpu.Cost {
	t.Helper()
	if cap(log) != intermittent.CostLogCap {
		t.Fatalf("cost log capacity %d, want %d", cap(log), intermittent.CostLogCap)
	}
	return &log[:1][0]
}

// TestCostLogBoundedAndReused: a runner allocates its cost log once, at
// its final capacity, and two consecutive inputs on one device reuse it:
// the second run allocates fewer bytes than one log holds. Continuous
// power gives every policy a headroom several times the cap, so an
// uncapped window would outgrow the log; the Wi-Fi trace adds outages. A
// fork gets a log of its own.
func TestCostLogBoundedAndReused(t *testing.T) {
	c, err := compiler.Compile(accumKernel(), compiler.Options{Mode: compiler.ModePrecise})
	if err != nil {
		t.Fatal(err)
	}
	logBytes := uint64(intermittent.CostLogCap) * uint64(unsafe.Sizeof(cpu.Cost{}))
	traces := map[string]*energy.Trace{
		"continuous": core.ContinuousTrace(),
		"wifi":       energy.SyntheticWiFiTrace(1, energy.DefaultTraceConfig()),
	}
	for _, proc := range []core.Processor{core.ProcClank, core.ProcNVP, core.ProcUndoLog} {
		for name, trace := range traces {
			t.Run(proc.String()+"/"+name, func(t *testing.T) {
				cfg := core.DefaultConfig()
				cfg.Processor = proc
				sys := core.NewSystem(cfg, trace)
				if err := sys.Load(c); err != nil {
					t.Fatal(err)
				}
				if name == "continuous" {
					// The window the runner would size without the cap.
					_, backup := sys.Policy.BatchHorizon()
					dev := cfg.Device
					if n := sys.Supply.Headroom() / (dev.EnergyPerCycle + dev.NVWriteEnergy + backup*dev.EnergyPerCycle); n < 4*intermittent.CostLogCap {
						t.Fatalf("headroom covers %.0f cycles, want several times the cap", n)
					}
				}
				if intermittent.CostLog(sys.Runner) != nil {
					t.Fatal("a runner that has not run holds a cost log")
				}
				first, err := sys.RunInput(accumInputs())
				if err != nil || !first.Halted {
					t.Fatalf("first run: %+v, %v", first, err)
				}
				if name == "wifi" && first.Outages == 0 {
					t.Fatal("the Wi-Fi trace must force outages")
				}
				base := logBase(t, intermittent.CostLog(sys.Runner))

				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				second, err := sys.RunInput(accumInputs())
				runtime.ReadMemStats(&after)
				if err != nil || !second.Halted {
					t.Fatalf("second run: %+v, %v", second, err)
				}
				if got := logBase(t, intermittent.CostLog(sys.Runner)); got != base {
					t.Error("the second run replaced the cost log")
				}
				if n := after.TotalAlloc - before.TotalAlloc; n >= logBytes {
					t.Errorf("the second run allocated %d B, want fewer than one %d B log", n, logBytes)
				}

				m := sys.Mem.Clone()
				fc := sys.CPU.Fork(m)
				fc.Reset()
				fork := sys.Runner.Fork(fc, m, energy.NewSupply(cfg.Device, core.ContinuousTrace()))
				if intermittent.CostLog(fork) != nil {
					t.Fatal("a fresh fork holds a cost log")
				}
				fork.Policy.Attach(fork)
				if res, err := fork.RunToHalt(); err != nil || !res.Halted {
					t.Fatalf("fork: %+v, %v", res, err)
				}
				if logBase(t, intermittent.CostLog(fork)) == base {
					t.Error("the fork shares its parent's cost log")
				}
				if got := logBase(t, intermittent.CostLog(sys.Runner)); got != base {
					t.Error("running the fork replaced the parent's cost log")
				}
			})
		}
	}
}
