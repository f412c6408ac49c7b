package faultinject

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"whatsnext/internal/asm"
	"whatsnext/internal/intermittent"
	"whatsnext/internal/mem"
	"whatsnext/internal/wncheck"
)

// runNaive is the reference injection campaign: RunLockstep with every
// injected run replayed from reset. RunLockstep must produce an identical
// Report in every field.
func runNaive(t Target, cfg Config, sched Schedule) (*Report, error) {
	inject = fromReset
	defer func() { inject = campaign }()
	return RunLockstep(t, cfg, sched)
}

// crossValidateFromReset is CrossValidate with every injected run replayed
// from reset, in the selection's own (flagged-first) order.
func crossValidateFromReset(t Target, cfg CrossConfig, cert *wncheck.Certificate) (*CrossReport, error) {
	inject = fromReset
	defer func() { inject = campaign }()
	return CrossValidate(t, cfg, cert)
}

// fromReset is the reference kill-point engine: one fresh device per
// point, run from reset to the point, failed there, and run to halt, with
// points visited in the order given. Each point's instruction count is the
// one its own device executed before the kill boundary, and each outcome
// comes from copying the whole NV data region and scanning it word by word
// (fullDiff), so the campaign's trunk counts and dirty-extent comparison
// are both checked against independent figures. It first re-runs the
// golden run on the policy device, which must take as many cycles as the
// bare CPU's.
func fromReset(t Target, cfg Config, worlds []*goldenWorld, inputWords []uint32,
	points []killPoint, visit func(killPoint, *Divergence)) error {
	ref, _, err := runOnce(t, cfg, toHalt, nil)
	if err != nil {
		return fmt.Errorf("golden run on the policy device: %w", err)
	}
	if !ref.CPU.Halted || ref.CPU.Stats.Cycles != worlds[0].stats.Cycles {
		return fmt.Errorf("golden run on the policy device: halted %v after %d cycles, bare CPU %d",
			ref.CPU.Halted, ref.CPU.Stats.Cycles, worlds[0].stats.Cycles)
	}
	goldens := make([][]byte, len(worlds))
	for i, w := range worlds {
		data, err := readData(w.m)
		if err != nil {
			return err
		}
		goldens[i] = maskInputs(data, inputWords)
	}
	onKill := advanceInputs(inputWords)
	for _, kill := range points {
		d, instr, err := runOnce(t, cfg, kill.cycle, onKill)
		if err != nil {
			return fmt.Errorf("kill at cycle %d: %w", kill.cycle, err)
		}
		kill.instr = instr
		div, err := fullDiff(kill, goldens, d, inputWords)
		if err != nil {
			return err
		}
		visit(kill, div)
	}
	return nil
}

// fullDiff is diff without the dirty extents: it copies the run's whole NV
// data region and compares it against every world's, word by word.
func fullDiff(kill killPoint, goldens [][]byte, run *intermittent.Runner, inputWords []uint32) (*Divergence, error) {
	if !run.CPU.Halted {
		return &Divergence{KillCycle: kill.cycle, KillInstruction: kill.instr}, nil
	}
	data, err := readData(run.Mem)
	if err != nil {
		return nil, err
	}
	data = maskInputs(data, inputWords)
	for _, g := range goldens {
		if bytes.Equal(g, data) {
			return nil, nil
		}
	}
	d := &Divergence{KillCycle: kill.cycle, KillInstruction: kill.instr, Halted: true}
	for off := 0; off+4 <= len(goldens[0]); off += 4 {
		w := binary.LittleEndian.Uint32(goldens[0][off:])
		g := binary.LittleEndian.Uint32(data[off:])
		if w == g {
			continue
		}
		if d.Words == 0 {
			d.Addr = mem.DataBase + uint32(off)
			d.Got, d.Want = g, w
		}
		d.Words++
	}
	return d, nil
}

// readData copies the whole NV data region of m.
func readData(m *mem.Memory) ([]byte, error) {
	data := make([]byte, m.Config().DataBytes)
	return data, m.ReadData(mem.DataBase, data)
}

// maskInputs zeroes the declared input words in a copy of an NV data image,
// so world comparison ignores the input locations themselves (they differ
// by construction after an advance).
func maskInputs(data []byte, inputWords []uint32) []byte {
	if len(inputWords) == 0 {
		return data
	}
	out := append([]byte(nil), data...)
	for _, w := range inputWords {
		off := int(w - mem.DataBase)
		if off >= 0 && off+4 <= len(out) {
			binary.LittleEndian.PutUint32(out[off:], 0)
		}
	}
	return out
}

// toHalt is a kill cycle no run reaches.
const toHalt = ^uint64(0)

// runOnce executes the target on a fresh device within cfg.Budget, killing
// power at the first instruction boundary at or after killCycle (pure CPU
// cycles) and then running onKill, when non-nil, on its memory. It also
// returns the instructions the device executed before that boundary.
func runOnce(t Target, cfg Config, killCycle uint64, onKill func(*mem.Memory) error) (*intermittent.Runner, uint64, error) {
	r, err := newRunner(t, cfg)
	if err != nil {
		return nil, 0, err
	}
	if err := runTo(r, killCycle, cfg.Budget); err != nil {
		return nil, 0, err
	}
	instr := r.CPU.Stats.Instructions
	if killCycle != toHalt && !r.CPU.Halted && r.CPU.Stats.Cycles <= cfg.Budget {
		r.ForceFailure()
		if onKill != nil {
			if err := onKill(r.Mem); err != nil {
				return nil, 0, err
			}
		}
	}
	if err := runTo(r, toHalt, cfg.Budget); err != nil {
		return nil, 0, err
	}
	return r, instr, nil
}

// TestCampaignVisitsInCycleOrder: the campaign takes kill points in any
// order, visits them in ascending cycle order, and gives each the outcome
// a from-reset run at that point gives. The points here come in reverse,
// so a campaign that advanced its trunk in the given order would kill
// every fork at the last boundary.
func TestCampaignVisitsInCycleOrder(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "commit_order.s"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.AssembleNamed("commit_order.s", string(src))
	if err != nil {
		t.Fatal(err)
	}
	target := FromProgram("commit_order.s", p)
	target.Mem = mem.Config{CodeBytes: 1 << 10, DataBytes: 1 << 10, SRAMBytes: 1 << 10}
	cfg := Config{
		Policy: func() intermittent.Policy { return intermittent.NewClank(intermittent.DefaultClankConfig()) },
	}
	golden, err := goldenRun(target, cfg, nil, true, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Budget = 4*golden.stats.Cycles + 65536
	points := killPoints(golden.costs, golden.stats.Cycles, Schedule{Exhaustive: true})
	slices.Reverse(points)

	worlds := []*goldenWorld{golden}
	type engine func(Target, Config, []*goldenWorld, []uint32, []killPoint, func(killPoint, *Divergence)) error
	outcomes := func(run engine) ([]killPoint, map[killPoint]Divergence) {
		var order []killPoint
		divs := make(map[killPoint]Divergence)
		err := run(target, cfg, worlds, nil, points, func(kill killPoint, d *Divergence) {
			order = append(order, kill)
			if d != nil {
				divs[kill] = *d
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return order, divs
	}
	order, got := outcomes(campaign)
	_, want := outcomes(fromReset)
	if !slices.IsSortedFunc(order, func(a, b killPoint) int { return cmp.Compare(a.cycle, b.cycle) }) || len(order) != len(points) {
		t.Errorf("campaign visited %d of %d points, not in cycle order", len(order), len(points))
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("campaign diverged at %d points, from reset at %d; want the same nonempty set", len(got), len(want))
	}
}
