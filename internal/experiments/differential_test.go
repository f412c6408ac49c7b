package experiments

import (
	"reflect"
	"testing"

	"whatsnext/internal/core"
	"whatsnext/internal/mem"
	"whatsnext/internal/workloads"
)

// dataImage reads the full NV data region.
func dataImage(t *testing.T, m *mem.Memory) []byte {
	t.Helper()
	buf := make([]byte, m.Config().DataBytes)
	if err := m.ReadData(mem.DataBase, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestBatchedContinuousMatchesReference runs every Table I kernel's precise
// build to halt twice — once per-instruction through Step, once through the
// batched RunUntil path — and requires identical final data memory, CPU
// statistics, and cycle counts.
func TestBatchedContinuousMatchesReference(t *testing.T) {
	for _, b := range workloads.All() {
		t.Run(b.Name, func(t *testing.T) {
			p := b.ScaledParams()
			c, err := PreciseVariant(b, p).Compile()
			if err != nil {
				t.Fatal(err)
			}
			in := b.Inputs(p, 1)

			refCPU, refMem, err := bareDevice(c, in, false)
			if err != nil {
				t.Fatal(err)
			}
			refCPU.SetAmenablePCs(c.Program.Amenable)
			var refCycles uint64
			for !refCPU.Halted {
				cost, err := refCPU.Step()
				if err != nil {
					t.Fatalf("reference fault: %v", err)
				}
				refCycles += uint64(cost.Cycles)
			}

			batCPU, batMem, err := bareDevice(c, in, false)
			if err != nil {
				t.Fatal(err)
			}
			batCPU.SetAmenablePCs(c.Program.Amenable)
			var batCycles uint64
			for !batCPU.Halted {
				res, err := batCPU.RunUntil(1<<62, nil)
				if err != nil {
					t.Fatalf("batched fault: %v", err)
				}
				batCycles += res.Cycles
			}

			if refCycles != batCycles {
				t.Errorf("cycles diverge: reference %d, batched %d", refCycles, batCycles)
			}
			if !reflect.DeepEqual(refCPU.Stats, batCPU.Stats) {
				t.Errorf("stats diverge:\nreference %+v\nbatched   %+v", refCPU.Stats, batCPU.Stats)
			}
			if refMem.NVWrites != batMem.NVWrites || refMem.Reads != batMem.Reads || refMem.Writes != batMem.Writes {
				t.Errorf("memory counters diverge: reference (%d %d %d), batched (%d %d %d)",
					refMem.Reads, refMem.Writes, refMem.NVWrites, batMem.Reads, batMem.Writes, batMem.NVWrites)
			}
			refData := dataImage(t, refMem)
			batData := dataImage(t, batMem)
			for i := range refData {
				if refData[i] != batData[i] {
					t.Fatalf("data memory diverges at %#08x: reference %#02x, batched %#02x",
						mem.DataBase+uint32(i), refData[i], batData[i])
				}
			}
		})
	}
}

// TestBatchedIntermittentMatchesReference is the end-to-end differential
// under power failures: every Table I kernel runs on all three processor
// types (Clank checkpointing, NVP backup-every-cycle and the undo log) over
// a seeded harvest trace, once with the runner's per-instruction reference
// loop and once with the batched loop. The Result structs — cycles on and
// off, instructions, outages, checkpoints, energy drawn — and the final
// data memory must match exactly.
func TestBatchedIntermittentMatchesReference(t *testing.T) {
	procs := []core.Processor{core.ProcClank, core.ProcNVP, core.ProcUndoLog}
	for _, b := range workloads.All() {
		for _, proc := range procs {
			t.Run(b.Name+"/"+proc.String(), func(t *testing.T) {
				p := b.ScaledParams()
				c, err := WNVariant(b, p, 4).Compile()
				if err != nil {
					t.Fatal(err)
				}
				in := b.Inputs(p, 1)

				run := func(reference bool) (res anyResult, data []byte) {
					sys := intermittentSystem(proc, 42, false)
					if err := sys.Load(c); err != nil {
						t.Fatal(err)
					}
					sys.Runner.Reference = reference
					r, err := sys.RunInput(in)
					if err != nil {
						t.Fatalf("reference=%v: %v", reference, err)
					}
					return anyResult{r.Halted, r.SkimTaken, r.CyclesOn, r.CyclesOff,
						r.Instructions, r.Outages, r.Checkpoints, r.EnergyDrawn}, dataImage(t, sys.Mem)
				}

				refRes, refData := run(true)
				batRes, batData := run(false)

				if refRes != batRes {
					t.Errorf("results diverge:\nreference %+v\nbatched   %+v", refRes, batRes)
				}
				if refRes.outages == 0 {
					t.Logf("note: trace produced no outages for %s/%s", b.Name, proc)
				}
				for i := range refData {
					if refData[i] != batData[i] {
						t.Fatalf("data memory diverges at %#08x: reference %#02x, batched %#02x",
							mem.DataBase+uint32(i), refData[i], batData[i])
					}
				}
			})
		}
	}
}

// anyResult is a comparable flattening of intermittent.Result.
type anyResult struct {
	halted      bool
	skimTaken   bool
	cyclesOn    uint64
	cyclesOff   uint64
	instrs      uint64
	outages     uint64
	checkpoints uint64
	energy      float64
}
