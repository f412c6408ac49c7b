package faultinject

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"whatsnext/internal/asm"
	"whatsnext/internal/compiler"
	"whatsnext/internal/cpu"
	"whatsnext/internal/intermittent"
	"whatsnext/internal/workloads"
)

// instructionAt is the definition of a kill point's instruction count: the
// number of instructions that start before cycle c — what a run stopped at
// cycle budget c has executed (the last of them may end past c).
func instructionAt(costs []cpu.Cost, c uint64) uint64 {
	var cum, n uint64
	for _, co := range costs {
		if cum >= c {
			break
		}
		cum += uint64(co.Cycles)
		n++
	}
	return n
}

// stampTargets are the programs the stamped-count tests run:
// every testdata program whose golden run halts (livelock.s never does)
// and two Table I kernels, compiled precise at a small size.
func stampTargets(t *testing.T) []Target {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "*.s"))
	if err != nil {
		t.Fatal(err)
	}
	var targets []Target
	for _, f := range files {
		if filepath.Base(f) == "livelock.s" {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := asm.AssembleNamed(f, string(src))
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, FromProgram(filepath.Base(f), p))
	}
	kernels := []struct {
		b *workloads.Benchmark
		p workloads.Params
	}{
		{workloads.Conv2d(), workloads.Params{ImgW: 6, ImgH: 6, K: 3}},
		{workloads.Var(), workloads.Params{Windows: 4, WindowSize: 8}},
	}
	for _, k := range kernels {
		c, err := compiler.Compile(k.b.Build(k.p, 8, false), compiler.Options{Mode: compiler.ModePrecise})
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, FromCompiled(k.b.Name, c, k.b.Inputs(k.p, 1)))
	}
	return targets
}

// TestCampaignStampsInstructionCounts: a strided campaign's golden run
// records nothing per instruction, and the campaign stamps each point's
// instruction count from its trunk. For every point it visits, that count
// must equal instructionAt over the recorded golden run's costs. The point
// counts land on exact boundaries, inside multi-cycle instructions, and
// (instructions + 5) above the instruction count; small runs also get a
// point at every cycle.
func TestCampaignStampsInstructionCounts(t *testing.T) {
	var onBoundary, inside, above bool
	for _, target := range stampTargets(t) {
		cfg := Config{}
		recorded, plain := recordedGolden(t, target, cfg)
		if plain.stats.Cycles != recorded.stats.Cycles || plain.stats.Instructions != recorded.stats.Instructions || plain.costs != nil {
			t.Fatalf("%s: unrecorded golden run took %d cycles, %d instructions, %d costs; recorded %d, %d",
				target.Name, plain.stats.Cycles, plain.stats.Instructions, len(plain.costs), recorded.stats.Cycles, recorded.stats.Instructions)
		}
		// starts holds the cycle each instruction starts at.
		starts := make(map[uint64]bool, len(recorded.costs))
		var cum uint64
		for _, co := range recorded.costs {
			starts[cum] = true
			cum += uint64(co.Cycles)
		}
		counts := []int{7, int(plain.stats.Instructions) + 5}
		if plain.stats.Cycles <= 4096 {
			counts = append(counts, int(plain.stats.Cycles)-1)
		}
		cfg.Budget = 4*plain.stats.Cycles + 65536
		for _, policy := range stampPolicies {
			cfg.Policy = policy
			name := policy().Name()
			for _, n := range counts {
				for _, kill := range stridedStamps(t, target, cfg, plain, n) {
					if want := instructionAt(recorded.costs, kill.cycle); kill.instr != want {
						t.Errorf("%s under %s, %d points: kill at cycle %d stamped %d instructions, want %d",
							target.Name, name, n, kill.cycle, kill.instr, want)
					}
					if starts[kill.cycle] {
						onBoundary = true
					} else {
						inside = true
					}
				}
				above = above || uint64(n) > plain.stats.Instructions
			}
		}
	}
	if !onBoundary || !inside || !above {
		t.Errorf("points on a boundary %v, inside an instruction %v, more points than instructions %v; want all",
			onBoundary, inside, above)
	}
}

// stampPolicies are the policies the stamped-count tests run under.
var stampPolicies = []func() intermittent.Policy{
	func() intermittent.Policy { return intermittent.NewClank(intermittent.DefaultClankConfig()) },
	func() intermittent.Policy { return intermittent.NewNVP(intermittent.DefaultNVPConfig()) },
	func() intermittent.Policy { return intermittent.NewUndoLog() },
}

// stridedStamps runs a strided campaign of n points over golden and returns
// the points it visits, in order, each stamped with its trunk's
// instruction count. It fails the test unless every point is visited at
// the cycle the strided schedule defines, k*cycles/(n+1).
func stridedStamps(t *testing.T, target Target, cfg Config, golden *goldenWorld, n int) []killPoint {
	t.Helper()
	points := killPoints(nil, golden.stats.Cycles, Schedule{Points: n})
	var got []killPoint
	err := campaign(target, cfg, []*goldenWorld{golden}, nil, points, func(kill killPoint, _ *Divergence) {
		got = append(got, kill)
	})
	if err != nil {
		t.Fatalf("%s, %d points: %v", target.Name, n, err)
	}
	if len(got) != n {
		t.Fatalf("%s: visited %d of %d points", target.Name, len(got), n)
	}
	for i, kill := range got {
		if want := uint64(i+1) * golden.stats.Cycles / uint64(n+1); kill.cycle != want {
			t.Fatalf("%s, %d points: point %d at cycle %d, want %d", target.Name, n, i, kill.cycle, want)
		}
	}
	return got
}

// recordedGolden returns a target's golden run with its per-instruction
// costs recorded, and the same run unrecorded, as a strided campaign
// takes it.
func recordedGolden(t *testing.T, target Target, cfg Config) (recorded, plain *goldenWorld) {
	t.Helper()
	recorded, err := goldenRun(target, cfg, nil, true, false)
	if err != nil {
		t.Fatalf("%s: %v", target.Name, err)
	}
	plain, err = goldenRun(target, cfg, nil, false, false)
	if err != nil {
		t.Fatalf("%s: %v", target.Name, err)
	}
	return recorded, plain
}

// TestStridedKillPointsMatchDefinition: over randomized point counts,
// policies and programs, every strided point's stamped instruction count
// equals the per-point definition, instructionAt over the recorded costs —
// including counts up to three times the instruction count.
func TestStridedKillPointsMatchDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	targets := stampTargets(t)
	for trial := 0; trial < 48; trial++ {
		target := targets[rng.Intn(len(targets))]
		cfg := Config{}
		recorded, plain := recordedGolden(t, target, cfg)
		cfg.Budget = 4*plain.stats.Cycles + 65536
		cfg.Policy = stampPolicies[rng.Intn(len(stampPolicies))]
		n := rng.Intn(3*int(plain.stats.Instructions) + 4)
		for _, kill := range stridedStamps(t, target, cfg, plain, n) {
			if want := instructionAt(recorded.costs, kill.cycle); kill.instr != want {
				t.Fatalf("%s under %s, %d points: kill at cycle %d stamped %d instructions, want %d",
					target.Name, cfg.Policy().Name(), n, kill.cycle, kill.instr, want)
			}
		}
	}
}

// TestStridedKillPointsOnBoundaries: with a point at every cycle, a point
// that lands exactly on an instruction boundary counts only the
// instructions before it, not the one that starts there, and every point
// inside a multi-cycle instruction counts that instruction as executed.
func TestStridedKillPointsOnBoundaries(t *testing.T) {
	var multiCycle bool
	for _, target := range stampTargets(t) {
		cfg := Config{}
		recorded, plain := recordedGolden(t, target, cfg)
		if plain.stats.Cycles > 4096 {
			continue
		}
		cfg.Budget = 4*plain.stats.Cycles + 65536
		cfg.Policy = stampPolicies[0]
		// Points k*cycles/cycles land on cycles 1, 2, ..., cycles-1.
		stamps := stridedStamps(t, target, cfg, plain, int(plain.stats.Cycles)-1)
		var start uint64
		for i, co := range recorded.costs {
			end := start + uint64(co.Cycles)
			for c := max(start, 1); c < end && c < plain.stats.Cycles; c++ {
				want := uint64(i + 1)
				if c == start {
					want = uint64(i)
				} else {
					multiCycle = true
				}
				if got := stamps[c-1].instr; got != want {
					t.Errorf("%s: kill at cycle %d (instruction %d spans cycles %d-%d) stamped %d instructions, want %d",
						target.Name, c, i, start, end, got, want)
				}
			}
			start = end
		}
	}
	if !multiCycle {
		t.Error("no point fell inside a multi-cycle instruction")
	}
}

// TestStridedKillPointsEmptyRun: the strided schedule reads no costs; a
// zero-cycle span puts every point at cycle 0, which the campaign stamps
// as before any instruction, and zero points give no points at all.
func TestStridedKillPointsEmptyRun(t *testing.T) {
	costs := []cpu.Cost{{Cycles: 3}, {Cycles: 16}}
	pts := killPoints(costs, 0, Schedule{Points: 5})
	if len(pts) != 5 || !slices.Equal(pts, killPoints(nil, 0, Schedule{Points: 5})) {
		t.Fatalf("points %v, want 5 that do not depend on the costs", pts)
	}
	target := stampTargets(t)[0]
	cfg := Config{}
	_, plain := recordedGolden(t, target, cfg)
	cfg.Budget = 4*plain.stats.Cycles + 65536
	cfg.Policy = stampPolicies[0]
	var visited int
	err := campaign(target, cfg, []*goldenWorld{plain}, nil, pts, func(kill killPoint, _ *Divergence) {
		if kill != (killPoint{}) {
			t.Errorf("point %+v, want cycle 0 and no instructions", kill)
		}
		visited++
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != len(pts) {
		t.Errorf("visited %d of %d points", visited, len(pts))
	}
	if pts := killPoints(costs, 3, Schedule{Points: 0}); len(pts) != 0 {
		t.Errorf("zero points gave %v", pts)
	}
}
