// Package faultinject is the dynamic half of the crash-consistency
// contract: a systematic power-failure injector over the batched stepper.
//
// It has one golden run and one kill-point engine. The golden run executes
// the target uninterrupted on a bare CPU in cpu.Run windows. The engine
// forks one shared trunk execution at each kill point, forces a full
// power-failure/restore round trip through the configured intermittent
// runtime at that exact instruction boundary, lets the fork finish, and
// compares its final non-volatile data region against the golden run's
// over the bytes either of them wrote.
// Any difference — a differing word, or a run that no longer halts within
// budget — is a witnessed crash-consistency violation, reported with the
// cycle of failure and the first differing word. RunLockstep picks the
// kill points from a Schedule, CrossValidate from a wncheck certificate.
//
// Kill points are expressed in pure CPU cycles (the sum of per-instruction
// Cost.Cycles), independent of runtime overhead charges, so a schedule
// derived from the golden run lands on the same instruction boundaries in
// the injected runs. A strided schedule needs only the golden run's length;
// the trunk, stopped at each kill cycle, counts the instructions before it.
// An exhaustive schedule and CrossValidate need every boundary's cycle (and
// CrossValidate its PC) before the campaign starts, so only their golden
// run records one cost per instruction.
//
// The static analysis in internal/wncheck (WN103, WN104 under
// Options.Crash) is the other half of the contract: programs it certifies
// clean must show zero divergence here, and programs it flags must produce
// a divergence the injector can point to. The tests in this package assert
// both directions.
package faultinject

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"whatsnext/internal/cpu"
	"whatsnext/internal/intermittent"
	"whatsnext/internal/mem"
)

// Config selects the runtime model under test; the memory geometry comes
// with the Target. The energy device is always
// energy.DefaultDeviceConfig(): policies consult only its NV-write energy
// figure, and the injector kills power explicitly rather than through the
// harvesting model.
type Config struct {
	// Policy builds a fresh intermittent runtime per run (each run needs
	// its own checkpoint state). Required.
	Policy func() intermittent.Policy
	// Budget bounds the active cycles of any single run; zero derives
	// 4x the golden run plus slack. An injected run that exceeds it has
	// lost forward progress, which counts as a divergence.
	Budget uint64
}

// Schedule picks the kill points.
type Schedule struct {
	// Exhaustive kills power at every instruction boundary of the golden
	// run (including cycle 0, before the first instruction).
	Exhaustive bool
	// MaxPoints caps an exhaustive schedule; beyond it the boundaries are
	// sampled evenly. Zero means no cap.
	MaxPoints int
	// Points, when not exhaustive, kills at Points cycle offsets spread
	// evenly across the golden run: k*total/(Points+1) for k = 1..Points.
	Points int
}

// Divergence is one witnessed crash-consistency violation.
type Divergence struct {
	KillCycle       uint64 // CPU cycle at which power was killed
	KillInstruction uint64 // instructions started before the kill cycle
	Halted          bool   // false: the injected run exceeded the budget
	Addr            uint32 // first differing NV data word (when Halted)
	Got, Want       uint32 // its value in the injected vs golden run
	Words           int    // total differing words
}

func (d Divergence) String() string {
	if !d.Halted {
		return fmt.Sprintf("kill at cycle %d (instruction %d): run lost forward progress (budget exceeded)",
			d.KillCycle, d.KillInstruction)
	}
	return fmt.Sprintf("kill at cycle %d (instruction %d): %d differing words, first at %#08x: got %#x want %#x",
		d.KillCycle, d.KillInstruction, d.Words, d.Addr, d.Got, d.Want)
}

// Report summarizes one injection campaign.
type Report struct {
	Target             string
	Policy             string
	GoldenCycles       uint64 // pure CPU cycles of the uninterrupted run
	GoldenInstructions uint64
	Points             int      // kill points actually injected
	StrideCycles       uint64   // mean cycle distance between kill points
	Schedule           []uint64 // the exact kill cycles, in injection order
	Divergences        []Divergence
}

// Clean reports whether every injected run reproduced the golden memory.
func (r *Report) Clean() bool { return len(r.Divergences) == 0 }

func (r *Report) String() string {
	head := fmt.Sprintf("faultinject: %s under %s: %d kill points over %d cycles (stride ~%d)",
		r.Target, r.Policy, r.Points, r.GoldenCycles, r.StrideCycles)
	if r.Clean() {
		return head + ": clean"
	}
	return fmt.Sprintf("%s: %d DIVERGENT — first: %s", head, len(r.Divergences), r.Divergences[0])
}

// killPoint is one scheduled failure: a cycle count and, for reporting,
// the number of instructions that start before it — those a run stopped
// at that cycle budget has executed. The campaign stamps the count from
// its trunk as it reaches the point.
type killPoint struct {
	cycle uint64
	instr uint64
}

// killPoints derives the schedule from the golden run. A strided schedule
// is the cycles k*total/(n+1), whose instruction counts the campaign
// stamps. An exhaustive one is every instruction boundary, the cumulative
// cycle counts of the recorded per-instruction costs; the boundary after
// the final instruction (HALT) is excluded — the run is already over.
func killPoints(costs []cpu.Cost, total uint64, sched Schedule) []killPoint {
	if !sched.Exhaustive {
		n := uint64(sched.Points)
		pts := make([]killPoint, 0, n)
		for k := uint64(1); k <= n; k++ {
			pts = append(pts, killPoint{cycle: k * total / (n + 1)})
		}
		return pts
	}
	bounds := []killPoint{{cycle: 0, instr: 0}}
	var cum uint64
	for i, co := range costs {
		if i == len(costs)-1 {
			break
		}
		cum += uint64(co.Cycles)
		bounds = append(bounds, killPoint{cycle: cum, instr: uint64(i + 1)})
	}
	if sched.MaxPoints > 0 && len(bounds) > sched.MaxPoints {
		sampled := make([]killPoint, sched.MaxPoints)
		for i := range sampled {
			sampled[i] = bounds[i*len(bounds)/sched.MaxPoints]
		}
		return sampled
	}
	return bounds
}

// diff compares a finished injected run against the golden worlds' final
// NV data (one world unless input words are declared): a run matching none
// of them is a divergence, reported against world 0; nil means it matched.
// The input words are masked on both sides. The run's memory equalled the
// golden state at its kill boundary when it forked from the trunk, and has
// tracked its writes since; each world's memory has tracked every write of
// its run. Outside the union of those dirty extents the run and every
// world therefore still hold the kill boundary's bytes, so only the union
// is read and compared.
func diff(kill killPoint, run *intermittent.Runner, worlds []*goldenWorld, inputWords []uint32) (*Divergence, error) {
	if !run.CPU.Halted {
		return &Divergence{KillCycle: kill.cycle, KillInstruction: kill.instr}, nil
	}
	ext := run.Mem.Dirty()
	for _, w := range worlds {
		ext = ext.Union(w.m.Dirty())
	}
	// Widened to whole words, as the comparison goes word by word.
	lo, hi := ext.DataLo&^3, min((ext.DataHi+3)&^3, uint32(run.Mem.Config().DataBytes)&^3)
	if lo >= hi {
		return nil, nil
	}
	got, err := dataWords(run.Mem, lo, hi, inputWords)
	if err != nil {
		return nil, err
	}
	var want []byte
	for _, w := range worlds {
		wd, err := dataWords(w.m, lo, hi, inputWords)
		if err != nil {
			return nil, err
		}
		if bytes.Equal(wd, got) {
			return nil, nil
		}
		if want == nil {
			want = wd
		}
	}
	d := &Divergence{KillCycle: kill.cycle, KillInstruction: kill.instr, Halted: true}
	for off := 0; off+4 <= len(want); off += 4 {
		w := binary.LittleEndian.Uint32(want[off:])
		g := binary.LittleEndian.Uint32(got[off:])
		if w == g {
			continue
		}
		if d.Words == 0 {
			d.Addr = mem.DataBase + lo + uint32(off)
			d.Got, d.Want = g, w
		}
		d.Words++
	}
	return d, nil
}

// dataWords reads the NV data bytes [lo, hi) (offsets into the region) of
// m, with the declared input words inside that range zeroed.
func dataWords(m *mem.Memory, lo, hi uint32, inputWords []uint32) ([]byte, error) {
	b := make([]byte, hi-lo)
	if err := m.ReadData(mem.DataBase+lo, b); err != nil {
		return nil, err
	}
	for _, w := range inputWords {
		if w >= mem.DataBase+lo && w-mem.DataBase+4 <= hi {
			binary.LittleEndian.PutUint32(b[w-mem.DataBase-lo:], 0)
		}
	}
	return b, nil
}
