package faultinject

import (
	"cmp"
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
// points visited in the order given. It first re-runs the golden run on
// the policy device, which must take as many cycles as the bare CPU's.
func fromReset(t Target, cfg Config, goldenCycles uint64, points []killPoint,
	onKill func(*mem.Memory) error, visit func(killPoint, *runResult)) error {
	ref, err := runOnce(t, cfg, toHalt, nil)
	if err != nil {
		return fmt.Errorf("golden run on the policy device: %w", err)
	}
	if !ref.c.Halted || ref.cycles != goldenCycles {
		return fmt.Errorf("golden run on the policy device: halted %v after %d cycles, bare CPU %d",
			ref.c.Halted, ref.cycles, goldenCycles)
	}
	for _, kill := range points {
		d, err := runOnce(t, cfg, kill.cycle, onKill)
		if err != nil {
			return fmt.Errorf("kill at cycle %d: %w", kill.cycle, err)
		}
		got, err := d.result()
		if err != nil {
			return err
		}
		visit(kill, got)
	}
	return nil
}

// toHalt is a kill cycle no run reaches.
const toHalt = ^uint64(0)

// runOnce executes the target on a fresh device within cfg.Budget, killing
// power at the first instruction boundary at or after killCycle (pure CPU
// cycles) and then running onKill, when non-nil, on its memory.
func runOnce(t Target, cfg Config, killCycle uint64, onKill func(*mem.Memory) error) (*device, error) {
	d, err := newDevice(t, cfg)
	if err != nil {
		return nil, err
	}
	if err := d.runTo(killCycle, cfg.Budget); err != nil {
		return nil, err
	}
	if killCycle != toHalt && !d.c.Halted && d.cycles <= cfg.Budget {
		d.r.ForceFailure()
		if onKill != nil {
			if err := onKill(d.m); err != nil {
				return nil, err
			}
		}
	}
	if err := d.runTo(toHalt, cfg.Budget); err != nil {
		return nil, err
	}
	return d, nil
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
	cfg := Config{
		Policy: func() intermittent.Policy { return intermittent.NewClank(intermittent.DefaultClankConfig()) },
		Mem:    mem.Config{CodeBytes: 1 << 10, DataBytes: 1 << 10, SRAMBytes: 1 << 10},
	}
	normalize(&cfg)
	golden, err := goldenRun(target, cfg, nil, true, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Budget = 4*golden.cycles + 65536
	points := killPoints(golden.costs, golden.cycles, Schedule{Exhaustive: true})
	slices.Reverse(points)

	goldens := [][]byte{golden.data}
	outcomes := func(engine func(Target, Config, uint64, []killPoint, func(*mem.Memory) error, func(killPoint, *runResult)) error) ([]killPoint, map[killPoint]Divergence) {
		var order []killPoint
		divs := make(map[killPoint]Divergence)
		err := engine(target, cfg, golden.cycles, points, nil, func(kill killPoint, got *runResult) {
			order = append(order, kill)
			if d, diverged := diff(kill, goldens, got, nil); diverged {
				divs[kill] = d
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
