package faultinject

import (
	"math/rand"
	"testing"

	"whatsnext/internal/cpu"
)

// instructionAt is the per-point definition the strided schedule must
// match: the number of instructions that start before cycle c — what a
// run stopped at cycle budget c has executed (the last of them may end
// past c).
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

// checkStrided asserts the one-pass strided schedule against the per-point
// definition.
func checkStrided(t *testing.T, costs []cpu.Cost, total uint64, points int) []killPoint {
	t.Helper()
	got := killPoints(costs, total, Schedule{Points: points})
	if len(got) != points {
		t.Fatalf("%d points, want %d", len(got), points)
	}
	n := uint64(points)
	for i, kp := range got {
		k := uint64(i + 1)
		want := killPoint{cycle: k * total / (n + 1)}
		want.instr = instructionAt(costs, want.cycle)
		if kp != want {
			t.Fatalf("costs %v, total %d, %d points: point %d = %+v, want %+v",
				costs, total, points, i, kp, want)
		}
	}
	return got
}

// TestStridedKillPointsMatchDefinition: over randomized cost traces the
// strided schedule equals the per-point definition, including 16-cycle
// instructions, more points than instructions, and empty runs.
func TestStridedKillPointsMatchDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cycles := []uint32{1, 1, 2, 3, 4, 16}
	for trial := 0; trial < 2000; trial++ {
		costs := make([]cpu.Cost, rng.Intn(48))
		var total uint64
		for i := range costs {
			costs[i].Cycles = cycles[rng.Intn(len(cycles))]
			total += uint64(costs[i].Cycles)
		}
		// Up to three times as many points as instructions.
		checkStrided(t, costs, total, rng.Intn(3*len(costs)+4))
	}
}

// TestStridedKillPointsOnBoundaries: points that land exactly on an
// instruction boundary count only the instructions before it, not the one
// that starts there.
func TestStridedKillPointsOnBoundaries(t *testing.T) {
	costs := make([]cpu.Cost, 8)
	for i := range costs {
		costs[i].Cycles = 4
	}
	// 7 points over 32 cycles land on cycles 4, 8, ..., 28.
	for i, kp := range checkStrided(t, costs, 32, 7) {
		if want := uint64(4 * (i + 1)); kp.cycle != want || kp.instr != uint64(i+1) {
			t.Errorf("point %d = %+v, want cycle %d after %d instructions", i, kp, want, i+1)
		}
	}
	// A 16-cycle instruction spans several points; every one of them
	// inside it counts it as executed.
	long := []cpu.Cost{{Cycles: 1}, {Cycles: 16}, {Cycles: 1}}
	for _, kp := range checkStrided(t, long, 18, 17) {
		if kp.cycle >= 2 && kp.cycle <= 17 && kp.instr != 2 {
			t.Errorf("point %+v inside the 16-cycle instruction, want 2 instructions", kp)
		}
	}
}

// TestStridedKillPointsEmptyRun: a zero-cycle run puts every point at
// cycle 0 before any instruction.
func TestStridedKillPointsEmptyRun(t *testing.T) {
	for _, kp := range checkStrided(t, nil, 0, 5) {
		if kp != (killPoint{}) {
			t.Errorf("point %+v, want cycle 0 and no instructions", kp)
		}
	}
	if pts := checkStrided(t, []cpu.Cost{{Cycles: 3}}, 3, 0); len(pts) != 0 {
		t.Errorf("zero points gave %v", pts)
	}
}
