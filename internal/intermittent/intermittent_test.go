package intermittent

import (
	"errors"
	"math/rand"
	"os"
	"testing"

	"whatsnext/internal/asm"
	"whatsnext/internal/cpu"
	"whatsnext/internal/energy"
	"whatsnext/internal/isa"
	"whatsnext/internal/mem"
)

// accumProgram is a kernel with read-modify-write non-volatile updates —
// the access pattern whose consistency depends on the Clank idempotency
// machinery. It computes SUM[i] += i for i in 0..N across OUTER passes.
const accumProgram = `
	MOVI R10, #96       ; outer passes (long enough to span several charges)
outer:
	MOVI R0, #0
	MOVTI R0, #4096     ; &SUM[0]
	MOVI R1, #0         ; i
loop:
	LDR R2, [R0, #0]    ; read-modify-write: read first,
	ADD R2, R2, R1
	STR R2, [R0, #0]    ; then write -> idempotency violation point
	ADDI R0, R0, #4
	ADDI R1, R1, #1
	CMPI R1, #64
	BLT loop
	SUBIS R10, R10, #1
	BNE outer
	HALT
`

// expected value of SUM[i] after the program: 96*i.
func checkAccum(t *testing.T, m *mem.Memory) {
	t.Helper()
	for i := uint32(0); i < 64; i++ {
		v, err := m.LoadWord(mem.DataBase + 4*i)
		if err != nil {
			t.Fatal(err)
		}
		if v != 96*i {
			t.Fatalf("SUM[%d] = %d, want %d", i, v, 96*i)
		}
	}
}

func buildDevice(t *testing.T, src string, policy Policy, trace *energy.Trace) *Runner {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(mem.DefaultConfig())
	if err := m.LoadProgram(p.Image); err != nil {
		t.Fatal(err)
	}
	c := cpu.New(m)
	s := energy.NewSupply(energy.DefaultDeviceConfig(), trace)
	return NewRunner(c, m, s, policy)
}

func ample() *energy.Trace { return energy.ConstantTrace(1, 1000, 3600) }

// weak returns a trace that recharges but forces many outages.
func weak() *energy.Trace { return energy.ConstantTrace(2e-3, 1000, 3600) }

func TestClankContinuousPower(t *testing.T) {
	r := buildDevice(t, accumProgram, NewClank(DefaultClankConfig()), ample())
	res, err := r.RunToHalt()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || res.Outages != 0 {
		t.Fatalf("unexpected result %+v", res)
	}
	checkAccum(t, r.Mem)
	if res.Checkpoints == 0 {
		t.Fatal("the RMW pattern must trigger idempotency checkpoints")
	}
}

func TestClankSurvivesOutages(t *testing.T) {
	r := buildDevice(t, accumProgram, NewClank(DefaultClankConfig()), weak())
	res, err := r.RunToHalt()
	if err != nil {
		t.Fatal(err)
	}
	if res.Outages == 0 {
		t.Fatal("weak trace should force outages")
	}
	checkAccum(t, r.Mem)
	if res.CyclesOff == 0 {
		t.Fatal("outages imply recharge time")
	}
}

func TestNVPSurvivesOutages(t *testing.T) {
	r := buildDevice(t, accumProgram, NewNVP(DefaultNVPConfig()), weak())
	res, err := r.RunToHalt()
	if err != nil {
		t.Fatal(err)
	}
	if res.Outages == 0 {
		t.Fatal("weak trace should force outages")
	}
	checkAccum(t, r.Mem)
	if res.Checkpoints != 0 {
		t.Fatal("NVP has no discrete checkpoints")
	}
}

// TestCrashConsistencyProperty is the load-bearing property of the whole
// intermittent substrate: with power outages injected at arbitrary points,
// both runtimes must produce exactly the memory image of an uninterrupted
// run. Clank achieves it through checkpoint+re-execution guarded by
// idempotency violations; NVP through per-cycle state retention.
func TestCrashConsistencyProperty(t *testing.T) {
	mkPolicy := map[string]func() Policy{
		"clank": func() Policy { return NewClank(DefaultClankConfig()) },
		"nvp":   func() Policy { return NewNVP(DefaultNVPConfig()) },
		"undolog": func() Policy {
			// The injected outages arrive every ~200 instructions on
			// average; the undo log has no violation checkpoints, so its
			// watchdog must advance the checkpoint faster than that (see
			// the forward-progress caveat on UndoLog).
			u := NewUndoLog()
			u.watchdog = 256
			return u
		},
	}
	for name, mk := range mkPolicy {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 30; trial++ {
				r := buildDevice(t, accumProgram, mk(), weak())
				// Inject extra forced outages at random instruction counts
				// on top of the weak supply's natural brown-outs.
				var n int
				next := 1 + rng.Intn(400)
				res, err := runReference(r, func(uint64) {
					n++
					if n == next {
						n = 0
						next = 1 + rng.Intn(400)
						r.Supply.ForceOutage()
					}
				})
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if res.Outages == 0 {
					t.Fatalf("trial %d: no outages injected", trial)
				}
				checkAccum(t, r.Mem)
			}
		})
	}
}

func TestSkimRedirectsRestore(t *testing.T) {
	// The program arms a skim point, then spins forever; only the skim
	// path can reach HALT. Forward progress therefore proves that the
	// restore path honored the armed target (Section III-C).
	src := `
		MOVI R0, #0
		MOVTI R0, #4096
		MOVI R1, #42
		STR R1, [R0, #0]
		SKM end
	spin:
		LDR R2, [R0, #0]
		ADDI R2, R2, #0
		B spin
	end:
		MOVI R3, #7
		HALT
	`
	for name, p := range map[string]Policy{
		"clank":   NewClank(DefaultClankConfig()),
		"nvp":     NewNVP(DefaultNVPConfig()),
		"undolog": NewUndoLog(),
	} {
		r := buildDevice(t, src, p, weak())
		res, err := r.RunToHalt()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Halted || !res.SkimTaken {
			t.Fatalf("%s: skim not taken: %+v", name, res)
		}
		if r.CPU.Regs[isa.R3] != 7 {
			t.Fatalf("%s: did not resume at the skim target", name)
		}
		if r.CPU.SkimArmed {
			t.Fatalf("%s: skim register must be disarmed after use", name)
		}
		v, _ := r.Mem.LoadWord(mem.DataBase)
		if v != 42 {
			t.Fatalf("%s: pre-skim store lost", name)
		}
	}
}

func TestWatchdogCheckpoints(t *testing.T) {
	// A long pure-compute loop (no NV writes) only checkpoints via the
	// watchdog: after the entry checkpoint, each one follows at least
	// WatchdogCycles and less than WatchdogCycles+MaxInstrCycles CPU cycles
	// after the last.
	cfg := DefaultClankConfig()
	cl := NewClank(cfg)
	r := buildDevice(t, watchdogProgram, cl, ample())
	if _, err := r.RunToHalt(); err != nil {
		t.Fatal(err)
	}
	fired, cycles := cl.Checkpoints()-1, r.CPU.Stats.Cycles
	if fired == 0 {
		t.Fatal("watchdog should have fired during the long loop")
	}
	if fired*cfg.WatchdogCycles > cycles || (fired+1)*(cfg.WatchdogCycles+cpu.MaxInstrCycles) <= cycles {
		t.Fatalf("%d watchdog checkpoints over %d cycles: not one per %d-cycle interval", fired, cycles, cfg.WatchdogCycles)
	}
}

func TestViolationCheckpointResumePoint(t *testing.T) {
	// After a violation checkpoint, the checkpointed PC must be the store
	// itself so re-execution replays it.
	src := `
		MOVI R0, #0
		MOVTI R0, #4096
		LDR R1, [R0, #0]
		ADDI R1, R1, #5
		STR R1, [R0, #0]
		HALT
	`
	cl := NewClank(DefaultClankConfig())
	r := buildDevice(t, src, cl, ample())
	if _, err := r.RunToHalt(); err != nil {
		t.Fatal(err)
	}
	if n := cl.Checkpoints(); n != 2 {
		t.Fatalf("checkpoints = %d, want 2 (entry + one violation)", n)
	}
	if cl.checkpoint.Regs[isa.PC] != 4*4 {
		t.Fatalf("checkpoint PC %#x, want the STR at %#x", cl.checkpoint.Regs[isa.PC], 4*4)
	}
}

func TestOutOfPower(t *testing.T) {
	r := buildDevice(t, accumProgram, NewClank(DefaultClankConfig()),
		energy.ConstantTrace(0, 1000, 1)) // dead environment
	_, err := r.RunToHalt()
	if err != ErrOutOfPower {
		t.Fatalf("err = %v, want ErrOutOfPower", err)
	}
}

func TestCycleBudgetGuard(t *testing.T) {
	src := "spin: B spin"
	r := buildDevice(t, src, NewNVP(DefaultNVPConfig()), ample())
	r.MaxCycles = 10_000
	_, err := r.RunToHalt()
	if err != ErrCycleBudget {
		t.Fatalf("err = %v, want ErrCycleBudget", err)
	}
}

func TestFaultSurfaces(t *testing.T) {
	src := `
		MOVI R0, #0
		MOVTI R0, #40000   ; unmapped
		LDR R1, [R0, #0]
		HALT
	`
	r := buildDevice(t, src, NewNVP(DefaultNVPConfig()), ample())
	if _, err := r.RunToHalt(); err == nil {
		t.Fatal("memory faults must surface from RunToHalt")
	}
}

func TestRuntimeOverheadAccounting(t *testing.T) {
	// The same program under NVP must draw more energy per cycle than the
	// raw instruction cost (the backup surcharge), and Clank must spend
	// extra cycles on checkpoints.
	src := `
		MOVI R1, #1000
	loop:
		SUBIS R1, R1, #1
		BNE loop
		HALT
	`
	rn := buildDevice(t, src, NewNVP(DefaultNVPConfig()), ample())
	resN, err := rn.RunToHalt()
	if err != nil {
		t.Fatal(err)
	}
	perCycle := resN.EnergyDrawn / float64(resN.CyclesOn)
	base := rn.Supply.Config().EnergyPerCycle
	if perCycle <= base*1.2 {
		t.Fatalf("NVP energy/cycle %.3g should include the backup surcharge over %.3g", perCycle, base)
	}

	rc := buildDevice(t, src, NewClank(DefaultClankConfig()), ample())
	resC, err := rc.RunToHalt()
	if err != nil {
		t.Fatal(err)
	}
	if resC.CyclesOn <= resN.CyclesOn {
		t.Fatalf("clank cycles %d should exceed nvp %d (checkpoint cycles)", resC.CyclesOn, resN.CyclesOn)
	}
}

func TestResultTotals(t *testing.T) {
	res := Result{CyclesOn: 10, CyclesOff: 32}
	if res.TotalCycles() != 42 {
		t.Fatal("TotalCycles arithmetic")
	}
}

func TestUndoLogRollsBack(t *testing.T) {
	// The program overwrites SUM[0] then spins; an outage must roll memory
	// back to the checkpoint-time value so re-execution is consistent.
	src := `
		MOVI R0, #0
		MOVTI R0, #4096
		MOVI R1, #0
		MOVTI R2, #2      ; big loop bound
	loop:
		ADDI R1, R1, #1
		STR R1, [R0, #0]  ; monotone NV writes
		SUBIS R2, R2, #1
		BNE loop
		HALT
	`
	ul := &rollbackProbe{UndoLog: NewUndoLog(), t: t}
	r := buildDevice(t, src, ul, weak())
	res, err := r.RunToHalt()
	if err != nil {
		t.Fatal(err)
	}
	if res.Outages == 0 {
		t.Fatal("expected outages")
	}
	if ul.rollbacks == 0 {
		t.Fatal("expected rollbacks")
	}
	v, _ := r.Mem.LoadWord(mem.DataBase)
	if v != 2<<16 {
		t.Fatalf("SUM = %d, want %d (consistent final value)", v, 2<<16)
	}
}

// rollbackProbe is an UndoLog that checks each restore which writes logged
// words back: the program's only NV word grows with every store, so a
// rollback must leave it smaller than the outage left it.
type rollbackProbe struct {
	*UndoLog
	t         *testing.T
	rollbacks int
}

func (p *rollbackProbe) OnRestore() (uint32, float64) {
	before := mustLoad(p.t, p.r.Mem, mem.DataBase)
	c, e := p.UndoLog.OnRestore()
	if c > restoreCycles {
		p.rollbacks++
		if after := mustLoad(p.t, p.r.Mem, mem.DataBase); after >= before {
			p.t.Errorf("rollback left SUM = %d, want below the outage's %d", after, before)
		}
	}
	return c, e
}

func TestUndoLogCapacityForcesCheckpoints(t *testing.T) {
	// Touch more distinct words than the log holds; the policy must
	// checkpoint to truncate it rather than overflow.
	src := `
		MOVI R0, #0
		MOVTI R0, #4096
		MOVI R1, #200
	loop:
		STR R1, [R0, #0]
		ADDI R0, R0, #4
		SUBIS R1, R1, #1
		BNE loop
		HALT
	`
	ul := NewUndoLog()
	ul.capacity = 16
	ul.watchdog = 1 << 30 // watchdog out of the picture
	r := buildDevice(t, src, ul, ample())
	if _, err := r.RunToHalt(); err != nil {
		t.Fatal(err)
	}
	if n := ul.Checkpoints(); n < 200/16 {
		t.Fatalf("checkpoints = %d, want at least %d (capacity-forced)", n, 200/16)
	}
}

func TestUndoLogLogsOncePerWordPerInterval(t *testing.T) {
	src := `
		MOVI R0, #0
		MOVTI R0, #4096
		MOVI R1, #100
	loop:
		STR R1, [R0, #0]   ; same word repeatedly
		SUBIS R1, R1, #1
		BNE loop
		HALT
	`
	ul := NewUndoLog()
	ul.watchdog = 1 << 30
	r := buildDevice(t, src, ul, ample())
	res, err := r.RunToHalt()
	if err != nil {
		t.Fatal(err)
	}
	// One checkpoint (at entry) and one log entry are all the overhead the
	// run pays on top of its instructions.
	if n := ul.Checkpoints(); n != 1 {
		t.Fatalf("checkpoints = %d, want 1", n)
	}
	if over := res.CyclesOn - r.CPU.Stats.Cycles; over != checkpointCycles+logEntryCycles {
		t.Fatalf("overhead %d cycles, want %d (one entry logged: dedup within the interval)",
			over, checkpointCycles+logEntryCycles)
	}
}

// policyMakers builds each production runtime with its default config.
var policyMakers = map[string]func() Policy{
	"clank":   func() Policy { return NewClank(DefaultClankConfig()) },
	"nvp":     func() Policy { return NewNVP(DefaultNVPConfig()) },
	"undolog": func() Policy { return NewUndoLog() },
}

// watchdogProgram is a pure-compute loop with no NV writes: only the
// watchdog checkpoints it, and many batched windows end exactly on the
// watchdog boundary.
const watchdogProgram = `
	MOVI R0, #0
	MOVTI R1, #1      ; 65536 iterations
loop:
	ADDI R0, R0, #1
	SUBIS R1, R1, #1
	BNE loop
	HALT
`

// runToHalt runs r through the reference loop or through RunToHalt.
func runToHalt(r *Runner, reference bool) (Result, error) {
	if reference {
		return runReference(r, nil)
	}
	return r.RunToHalt()
}

// TestNoTraceOutOfPower: a device whose supply has no harvest trace runs
// until its first brown-out and then reports ErrOutOfPower.
func TestNoTraceOutOfPower(t *testing.T) {
	for _, reference := range []bool{false, true} {
		r := buildDevice(t, accumProgram, NewClank(DefaultClankConfig()), nil)
		res, err := runToHalt(r, reference)
		if !errors.Is(err, ErrOutOfPower) {
			t.Fatalf("reference=%v: err = %v, want ErrOutOfPower", reference, err)
		}
		if res.Outages != 1 || res.Halted {
			t.Fatalf("reference=%v: result %+v, want one outage and no halt", reference, res)
		}
	}
}

// mulLoopProgram is a dot-product shape: a store-free multiply inner loop
// and one store per outer pass. With no memo table its multiplies have
// static costs, so Run fuses the inner loop while collecting costs.
const mulLoopProgram = `
	MOVI R10, #96       ; outer passes
outer:
	MOVI R0, #0
	MOVTI R0, #4096     ; &X[0]
	MOVI R1, #64        ; i
	MOVI R4, #0
loop:
	LDR R2, [R0, #0]
	MUL R3, R2, R1
	ADD R4, R4, R3
	ADDI R0, R0, #4
	SUBIS R1, R1, #1
	BNE loop
	STR R4, [R0, #0]    ; one result word per pass
	SUBIS R10, R10, #1
	BNE outer
	HALT
`

// BenchmarkRunToHalt measures the batched runner, policy and supply replay
// together: accumProgram to halt under each checkpointing policy, and
// mulLoopProgram under Clank, over a Wi-Fi harvest trace with outages.
// Device construction is excluded from the timing.
func BenchmarkRunToHalt(b *testing.B) {
	trace := energy.SyntheticWiFiTrace(1, energy.DefaultTraceConfig())
	for _, bc := range []struct{ name, src, policy string }{
		{"clank", accumProgram, "clank"},
		{"nvp", accumProgram, "nvp"},
		{"undolog", accumProgram, "undolog"},
		{"mul-loop", mulLoopProgram, "clank"},
	} {
		p, err := asm.Assemble(bc.src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			var instrs, outages uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := mem.New(mem.DefaultConfig())
				if err := m.LoadProgram(p.Image); err != nil {
					b.Fatal(err)
				}
				r := NewRunner(cpu.New(m), m, energy.NewSupply(energy.DefaultDeviceConfig(), trace), policyMakers[bc.policy]())
				b.StartTimer()
				res, err := r.RunToHalt()
				if err != nil || !res.Halted {
					b.Fatalf("run %d: %+v, %v", i, res, err)
				}
				instrs += res.Instructions
				outages += res.Outages
			}
			if outages == 0 {
				b.Fatal("the trace must force outages")
			}
			b.ReportMetric(float64(instrs)/float64(b.N), "instructions/op")
			b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instr/s")
		})
	}
}

// TestDotprodSkimUnderOutages runs the hand-written Listing 2 dot product
// (internal/asm/testdata/dotprod.s) under Clank and forces an outage five
// instructions after its skim point arms: the restore must take the skim
// path and commit a positive under-approximation of the exact result.
func TestDotprodSkimUnderOutages(t *testing.T) {
	src, err := os.ReadFile("../asm/testdata/dotprod.s")
	if err != nil {
		t.Fatal(err)
	}
	r := buildDevice(t, string(src), NewClank(DefaultClankConfig()), energy.ConstantTrace(5e-3, 1000, 100))
	var exact uint32
	for i := uint32(0); i < 8; i++ {
		f, a := 100+13*i, 0x1234+0x1111*i
		if err := r.Mem.StoreHalf(mem.DataBase+2*i, f); err != nil {
			t.Fatal(err)
		}
		if err := r.Mem.StoreHalf(mem.DataBase+16+2*i, a); err != nil {
			t.Fatal(err)
		}
		exact += f * a
	}
	// Re-arm the policy so the input stores are not tracked as program
	// writes, as core.System.RunInput does.
	r.Policy.Attach(r)
	armed := false
	extra := 0
	res, err := runReference(r, func(uint64) {
		if r.CPU.SkimArmed && !armed {
			armed = true
		}
		if armed {
			if extra++; extra == 5 {
				r.Supply.ForceOutage()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.SkimTaken {
		t.Fatal("the forced outage after the skim point should have skimmed")
	}
	got, _ := r.Mem.LoadWord(mem.DataBase + 32)
	if got == 0 || got > exact {
		t.Fatalf("skimmed X = %d, want a positive under-approximation of %d", got, exact)
	}
}
