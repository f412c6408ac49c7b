// Package faultinject is the dynamic half of the crash-consistency
// contract: a systematic power-failure injector over the batched stepper.
//
// For every scheduled kill point it executes the target program on a fresh
// device, forces a full power-failure/restore round trip through the
// configured intermittent runtime at the exact instruction boundary, lets
// the run finish, and differentially compares the final non-volatile data
// region against an uninterrupted golden run. Any difference — a differing
// word, or a run that no longer halts within budget — is a witnessed
// crash-consistency violation, reported with the cycle of failure and the
// first differing word.
//
// Kill points are expressed in pure CPU cycles (the sum of per-instruction
// Cost.Cycles), independent of runtime overhead charges, so a schedule
// derived from the golden run lands on the same instruction boundaries in
// the injected runs. The static analysis in internal/wncheck (WN103,
// WN104 under Options.Crash) is the other half of the contract: programs
// it certifies clean must show zero divergence here, and programs it flags
// must produce a divergence the injector can point to. The tests in this
// package assert both directions.
package faultinject

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"whatsnext/internal/cpu"
	"whatsnext/internal/energy"
	"whatsnext/internal/intermittent"
	"whatsnext/internal/mem"
)

// Config selects the runtime model and device under test.
type Config struct {
	// Policy builds a fresh intermittent runtime per run (each run needs
	// its own checkpoint state). Required.
	Policy func() intermittent.Policy
	// Mem overrides the memory geometry; the zero value means
	// mem.DefaultConfig().
	Mem mem.Config
	// Device overrides the energy device; the zero value means
	// energy.DefaultDeviceConfig(). Only the NV-write energy figure is
	// consulted — the injector kills power explicitly rather than through
	// the harvesting model.
	Device energy.DeviceConfig
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

// Run executes the campaign: one golden run, then one injected run per
// scheduled kill point. Errors are infrastructure failures (a program that
// faults or cannot finish even uninterrupted); divergences are reported in
// the Report, not as errors.
func Run(t Target, cfg Config, sched Schedule) (*Report, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("faultinject: Config.Policy is required")
	}
	if cfg.Mem == (mem.Config{}) {
		cfg.Mem = mem.DefaultConfig()
	}
	if cfg.Device == (energy.DeviceConfig{}) {
		cfg.Device = energy.DefaultDeviceConfig()
	}

	var costs []cpu.Cost
	golden, err := runOnce(t, cfg, noKill, ^uint64(0), &costs, nil)
	if err != nil {
		return nil, fmt.Errorf("faultinject: %s: golden run: %w", t.Name, err)
	}
	if !golden.halted {
		return nil, fmt.Errorf("faultinject: %s: golden run did not halt", t.Name)
	}
	if cfg.Budget == 0 {
		cfg.Budget = 4*golden.cycles + 65536
	}

	points := killPoints(costs, golden.cycles, sched)
	rep := &Report{
		Target:             t.Name,
		Policy:             cfg.Policy().Name(),
		GoldenCycles:       golden.cycles,
		GoldenInstructions: golden.instrs,
		Points:             len(points),
	}
	if n := len(points); n > 0 {
		rep.StrideCycles = golden.cycles / uint64(n)
	}

	for _, kill := range points {
		rep.Schedule = append(rep.Schedule, kill.cycle)
		got, err := runOnce(t, cfg, kill.cycle, cfg.Budget, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("faultinject: %s: kill at cycle %d: %w", t.Name, kill.cycle, err)
		}
		if d, diverged := diff(kill, &golden, &got); diverged {
			rep.Divergences = append(rep.Divergences, d)
		}
	}
	return rep, nil
}

// killPoint is one scheduled failure: a cycle count and, for reporting,
// the number of instructions that start before it — those a run stopped
// at that cycle budget has executed.
type killPoint struct {
	cycle uint64
	instr uint64
}

// killPoints derives the schedule from the golden run's per-instruction
// costs. Boundaries are the cumulative cycle counts after each instruction;
// the boundary after the final instruction (HALT) is excluded — the run is
// already over. A strided schedule's cycles k*total/(n+1) never decrease as
// k grows, so one forward pass over the costs finds every point's
// instruction count.
func killPoints(costs []cpu.Cost, total uint64, sched Schedule) []killPoint {
	if !sched.Exhaustive {
		n := uint64(sched.Points)
		pts := make([]killPoint, 0, n)
		var cum, instr uint64
		for k := uint64(1); k <= n; k++ {
			c := k * total / (n + 1)
			// Count the instructions that start before cycle c: those a
			// run stopped at budget c has executed.
			for instr < uint64(len(costs)) && cum < c {
				cum += uint64(costs[instr].Cycles)
				instr++
			}
			pts = append(pts, killPoint{cycle: c, instr: instr})
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

// diff compares an injected run against the golden run.
func diff(kill killPoint, golden, got *runResult) (Divergence, bool) {
	if !got.halted {
		return Divergence{KillCycle: kill.cycle, KillInstruction: kill.instr}, true
	}
	if bytes.Equal(golden.data, got.data) {
		return Divergence{}, false
	}
	d := Divergence{KillCycle: kill.cycle, KillInstruction: kill.instr, Halted: true}
	first := true
	for off := 0; off+4 <= len(golden.data); off += 4 {
		w := binary.LittleEndian.Uint32(golden.data[off:])
		g := binary.LittleEndian.Uint32(got.data[off:])
		if w == g {
			continue
		}
		d.Words++
		if first {
			first = false
			d.Addr = mem.DataBase + uint32(off)
			d.Got, d.Want = g, w
		}
	}
	return d, d.Words > 0
}
