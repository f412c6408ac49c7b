package intermittent_test

// The window-granular replay of RunToHalt checked against the
// per-instruction reference for the production policies and for the
// test-support witnesses in policytest, which this package cannot import
// from its internal tests.

import (
	"bytes"
	"testing"

	"whatsnext/internal/cpu"
	"whatsnext/internal/energy"
	"whatsnext/internal/intermittent"
	"whatsnext/internal/intermittent/policytest"
	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
)

// allPolicies builds each of the five runtimes with its default config:
// the three production policies and the two policytest witnesses.
var allPolicies = map[string]func() intermittent.Policy{
	"clank":   func() intermittent.Policy { return intermittent.NewClank(intermittent.DefaultClankConfig()) },
	"nvp":     func() intermittent.Policy { return intermittent.NewNVP(intermittent.DefaultNVPConfig()) },
	"undolog": func() intermittent.Policy { return intermittent.NewUndoLog() },
	"naive":   func() intermittent.Policy { return policytest.NewNaive(policytest.DefaultNaiveConfig()) },
	"restart": func() intermittent.Policy { return policytest.NewRestart(policytest.DefaultRestartConfig()) },
}

// TestBatchedMatchesReference pins the window-granular replay of
// RunToHalt to the per-instruction reference loop for every policy, under
// the Weak trace and a Wi-Fi trace whose harvest power changes from sample to
// sample: the same Result, error, supply totals and data memory. Both
// programs outlast one charge, so Restart never completes and both loops
// must stop at the same instruction with ErrCycleBudget. Naive re-executes
// AccumProgram's read-modify-writes against overwritten values, which both
// loops must reproduce identically too. In the "hooked-store-first" case
// R0 already points at NV data, so the first batched window stops before
// executing anything while the initial checkpoint's overhead is pending.
func TestBatchedMatchesReference(t *testing.T) {
	traces := map[string]func() *energy.Trace{
		"weak": intermittent.Weak,
		"wifi": func() *energy.Trace { return energy.SyntheticWiFiTrace(2, energy.DefaultTraceConfig()) },
	}
	programs := map[string]struct {
		src   string
		setup func(*cpu.CPU)
	}{
		"accum":              {intermittent.AccumProgram, func(*cpu.CPU) {}},
		"watchdog":           {intermittent.WatchdogProgram, func(*cpu.CPU) {}},
		"hooked-store-first": {"STR R1, [R0, #0]\n" + intermittent.AccumProgram, func(c *cpu.CPU) { c.Regs[isa.R0] = mem.DataBase }},
	}
	for progName, prog := range programs {
		for trName, mkTrace := range traces {
			for name, mk := range allPolicies {
				t.Run(progName+"/"+trName+"/"+name, func(t *testing.T) {
					testBatchedMatchesReference(t, name, prog.src, prog.setup, mk, mkTrace)
				})
			}
		}
	}
}

func testBatchedMatchesReference(t *testing.T, name, src string, setup func(*cpu.CPU), mk func() intermittent.Policy, mkTrace func() *energy.Trace) {
	type outcome struct {
		res              intermittent.Result
		err              error
		drawn, charged   float64
		headroom         float64
		cyclesOn, instrs uint64
		data             []byte
	}
	run := func(reference bool) outcome {
		r := intermittent.BuildDevice(t, src, mk(), mkTrace())
		setup(r.CPU)
		r.MaxCycles = 2_000_000
		res, err := runToHalt(r, reference)
		data := make([]byte, 64*4)
		if rerr := r.Mem.ReadData(mem.DataBase, data); rerr != nil {
			t.Fatal(rerr)
		}
		return outcome{res, err, r.Supply.EnergyDrawn, r.Supply.EnergyCharged,
			r.Supply.Headroom(), r.Supply.CyclesOn, r.CPU.Stats.Instructions, data}
	}
	ref, bat := run(true), run(false)
	if ref.res != bat.res || ref.err != bat.err || ref.drawn != bat.drawn ||
		ref.charged != bat.charged || ref.headroom != bat.headroom ||
		ref.cyclesOn != bat.cyclesOn || ref.instrs != bat.instrs {
		t.Fatalf("batched diverges from reference:\nreference %+v err=%v\nbatched   %+v err=%v",
			ref.res, ref.err, bat.res, bat.err)
	}
	if !bytes.Equal(ref.data, bat.data) {
		t.Fatal("data memory diverges")
	}
	if ref.res.Outages == 0 {
		t.Fatal("the trace must force outages")
	}
	if name == "restart" && ref.err != intermittent.ErrCycleBudget {
		t.Fatalf("restart: err = %v, want ErrCycleBudget", ref.err)
	}
}

// runToHalt runs r through the reference loop or through RunToHalt.
func runToHalt(r *intermittent.Runner, reference bool) (intermittent.Result, error) {
	if reference {
		return intermittent.RunReference(r, nil)
	}
	return r.RunToHalt()
}
